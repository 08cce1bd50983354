// The acquisition-order cases: rank annotations, inversions, self-deadlock,
// transitive and cross-package acquisition, a call both checks report, and
// the retired hatch that no longer waives an inversion.
package lockorderdata

import (
	"sync"

	"lockorderdep"
)

type Server struct {
	stateMu sync.RWMutex //lint:lockrank 20 tree state; outer
	shipMu  sync.Mutex   //lint:lockrank 30 ship ack gate
	mu      sync.Mutex   //lint:lockrank 40 conn table; innermost
	plain   sync.Mutex   // unranked: self-deadlock check only
	st      *lockorderdep.Store
	q       *lockorderdep.Queue
	n       int
}

// good nests in increasing rank order: no diagnostics.
func (s *Server) good() {
	s.stateMu.Lock()
	s.shipMu.Lock()
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.shipMu.Unlock()
	s.stateMu.Unlock()
}

func (s *Server) inverted() {
	s.shipMu.Lock()
	s.stateMu.Lock() // want `lock order violation: acquiring stateMu \(rank 20\) while holding shipMu \(rank 30\)`
	s.stateMu.Unlock()
	s.shipMu.Unlock()
}

func (s *Server) relock() {
	s.plain.Lock()
	s.plain.Lock() // want `mutex plain acquired while already held`
	s.plain.Unlock()
	s.plain.Unlock()
}

// rr: a recursive RLock deadlocks if a Lock waits between the two.
func (s *Server) rr() {
	s.stateMu.RLock()
	s.stateMu.RLock() // want `mutex stateMu acquired while already held`
	s.stateMu.RUnlock()
	s.stateMu.RUnlock()
}

// upgrade: RLock then Lock on the same mutex deadlocks.
func (s *Server) upgrade() {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	s.stateMu.Lock() // want `mutex stateMu acquired while already held`
	s.stateMu.Unlock()
}

// lockState is safe alone; callUnder reaches it holding a higher rank.
func (s *Server) lockState() {
	s.stateMu.Lock()
	s.n++
	s.stateMu.Unlock()
}

func (s *Server) callUnder() {
	s.mu.Lock()
	s.lockState() // want `call to lockState may acquire stateMu \(rank 20\) while holding mu \(rank 40\)`
	s.mu.Unlock()
}

// indirect propagates through a same-package chain: the summary fixpoint.
func (s *Server) indirect() { s.lockState() }

func (s *Server) callChainUnder() {
	s.shipMu.Lock()
	s.indirect() // want `call to indirect may acquire stateMu \(rank 20\) while holding shipMu \(rank 30\)`
	s.shipMu.Unlock()
}

// crossPkg: the dep's rank-10 lock arrives as an object fact.
func (s *Server) crossPkg() {
	s.stateMu.Lock()
	s.st.Bump() // want `call to Bump may acquire mu \(rank 10\) while holding stateMu \(rank 20\)`
	s.stateMu.Unlock()
}

// downRank is the clean direction: calling into a HIGHER rank is fine.
func (s *Server) lockInner() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

func (s *Server) downRank() {
	s.stateMu.Lock()
	s.lockInner()
	s.stateMu.Unlock()
}

// excused: //lint:allowlockorder is no hatch; the inversion is reported.
func (s *Server) excused() {
	s.shipMu.Lock()
	//lint:allowlockorder audited
	s.stateMu.Lock() // want `lock order violation: acquiring stateMu \(rank 20\) while holding shipMu \(rank 30\)`
	s.stateMu.Unlock()
	s.shipMu.Unlock()
}

// both: one cross-package summary carries an acquisition and a block, and
// under the exclusive rank-40 mu each check reports its own.
func (s *Server) both() {
	s.mu.Lock()
	s.q.Publish(1) // want `call to Publish may acquire qmu \(rank 20\) while holding mu \(rank 40\)` `blocking call to Queue.Publish, which may block \(channel send\) while holding mu`
	s.mu.Unlock()
}

// spawned goroutines get their own timeline: the go body's acquisition is
// not charged to the spawner's held set.
func (s *Server) spawns() {
	s.mu.Lock()
	go func() {
		s.stateMu.Lock()
		s.stateMu.Unlock()
	}()
	s.mu.Unlock()
}

type Bad struct {
	//lint:lockrank ten
	m sync.Mutex // want `//lint:lockrank rank "ten" is not an integer`
	//lint:lockrank
	m2 sync.Mutex // want `//lint:lockrank needs an integer rank`
	//lint:lockrank 5
	n int // want `//lint:lockrank on n, which is not a sync.Mutex or sync.RWMutex`
}

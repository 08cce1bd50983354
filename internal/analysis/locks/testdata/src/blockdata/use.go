// The blocking-under-lock cases: channel ops, waits, sleeps, watched IO entry
// points, transitive and cross-package blocking, function-value calls, the
// shared-lock exemption, and the escape hatch.
package blockdata

import (
	"sync"
	"time"

	"blockdep"
	"blockmod/x"
	"internal/engine"
)

type Server struct {
	mu      sync.Mutex
	stateMu sync.RWMutex
	wg      sync.WaitGroup
	ch      chan int
	eng     *engine.Engine
	dep     *blockdep.Pool
	cb      func()
	n       int
}

func (s *Server) sendUnder() {
	s.mu.Lock()
	s.ch <- 1 // want `blocking channel send while holding mu`
	s.mu.Unlock()
}

func (s *Server) recvUnder() {
	s.mu.Lock()
	defer s.mu.Unlock()
	<-s.ch // want `blocking channel receive while holding mu`
}

func (s *Server) waitUnder() {
	s.mu.Lock()
	s.wg.Wait() // want `blocking call to WaitGroup.Wait while holding mu`
	s.mu.Unlock()
}

func (s *Server) sleepUnder() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `blocking call to time.Sleep while holding mu`
	s.mu.Unlock()
}

func (s *Server) selectUnder() {
	s.mu.Lock()
	select { // want `blocking select with no default while holding mu`
	case <-s.ch:
	case s.ch <- 1:
	}
	s.mu.Unlock()
}

// selectPoll has a default clause: a poll, not a block.
func (s *Server) selectPoll() {
	s.mu.Lock()
	select {
	case v := <-s.ch:
		s.n += v
	default:
	}
	s.mu.Unlock()
}

func (s *Server) rangeUnder() {
	s.mu.Lock()
	for v := range s.ch { // want `blocking range over channel while holding mu`
		s.n += v
	}
	s.mu.Unlock()
}

func (s *Server) ioUnder() {
	s.mu.Lock()
	s.eng.Sync() // want `blocking call to Engine.Sync \(device/durable IO\) while holding mu`
	s.mu.Unlock()
}

// helper blocks transitively; callers under lock are flagged with the root
// cause.
func (s *Server) helper() { <-s.ch }

func (s *Server) transitive() {
	s.mu.Lock()
	s.helper() // want `blocking call to Server.helper, which may block \(channel receive\) while holding mu`
	s.mu.Unlock()
}

// crossPkg: the dep's Drain carries a blocks fact.
func (s *Server) crossPkg() {
	s.mu.Lock()
	s.dep.Drain() // want `blocking call to Pool.Drain, which may block \(channel receive\) while holding mu`
	s.mu.Unlock()
}

func (s *Server) funcValue() {
	s.mu.Lock()
	s.cb() // want `blocking call through a function value \(unverifiable\) while holding mu`
	s.mu.Unlock()
}

// sharedRead: device IO under the shared mode is the read path's design.
func (s *Server) sharedRead() {
	s.stateMu.RLock()
	s.eng.Sync()
	s.stateMu.RUnlock()
}

// outside: the same operations after Unlock are clean.
func (s *Server) outside() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	<-s.ch
	s.wg.Wait()
}

// spawned goroutines have their own timeline.
func (s *Server) spawns() {
	s.mu.Lock()
	go func() {
		<-s.ch
	}()
	s.mu.Unlock()
}

// excused: the audited group-commit-style hold.
func (s *Server) excused() {
	s.mu.Lock()
	//lint:allowblock the mu holder performs the commit by design; audited
	s.eng.Sync()
	s.mu.Unlock()
}

// badExcuse: a hatch without a reason is diagnosed.
func (s *Server) badExcuse() {
	s.mu.Lock()
	//lint:allowblock
	s.ch <- 1 // want `//lint:allowblock needs a reason`
	s.mu.Unlock()
}

// crossTwo: x.F blocks because y.G, which it calls, dials — a cause two
// package boundaries away, within one module.
func (s *Server) crossTwo() {
	s.mu.Lock()
	x.F() // want `blocking call to x.F, which may block \(call to net.Dial\) while holding mu`
	s.mu.Unlock()
}

// outsideModule: x.H blocks only through another module's package, whose
// cause x's summary does not fold.
func (s *Server) outsideModule() {
	s.mu.Lock()
	s.n += x.H(s.dep)
	s.mu.Unlock()
}

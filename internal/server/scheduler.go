// The PDAM-aware read scheduler. The paper's Lemma 13 observation: a device
// serving P IOs per time step is only saturated when ~P independent requests
// are in flight per step; a scheduler admitting one request at a time (the
// DAM's implicit discipline) leaves P-1 slots idle.
//
// What the lemma gates on is free queue depth, so that is all the scheduler
// keeps: a LANE is `size` virtual slots (from the device's
// storage.Topology), and a slot remembers the virtual instant it last became
// free. A read presents its connection's cursor and starts, at once, at
// max(cursor, the slot's free instant); it waits only when every slot of its
// lane is held, and then inherits the end of the read that releases one.
// There is no batch, no barrier and no clock: a closed-loop client's next
// request arrives, virtually, at its own previous completion, so k <= size
// connections each keep a slot and run on their own cursors — the device's
// stepper, not the scheduler, packs their IOs into steps — and k > size is
// list scheduling on `size` machines. size = 1 is the DAM's serial
// discipline (the E20 baseline).
//
// Slots are handed out best-fit: the latest-freed idle slot that does not
// delay the read, else the earliest-freed one. Taking the earliest would
// hand a leading connection the slot a lagging one is about to come back
// for, and drag the laggard up to the leader's instant.
//
// Queue awareness (the multi-queue refinement): on a device with several
// submission queues the scheduler runs one independent lane per queue, each
// sized to the topology's per-queue target, and requests are assigned lanes
// by key hash, so a backlog on one queue never convoys the others.
//
// Admission control: at most maxQueue requests may be queued or running
// across all lanes. Beyond that, admit refuses and the connection answers
// StatusBusy — shedding load at the door instead of queueing without bound.
package server

import (
	"sync"

	"iomodels/internal/engine"
	"iomodels/internal/sim"
)

// ticket is one admitted read's place on its lane.
type ticket struct {
	lane int
	// start is the read's virtual start instant once launched (until then,
	// the cursor it was admitted with).
	start sim.Time
	// launched is nil when admit found a slot; a read that had to queue
	// waits for the releasing read to close it.
	launched chan struct{}
}

// lane is one queue's slots.
type lane struct {
	idle    []sim.Time // the free instants of the slots nobody holds
	waiting []*ticket  // FIFO; non-empty only while no slot is idle
	latest  sim.Time   // the latest start instant handed out
}

// readScheduler admits reads onto one or more lanes of virtual slots.
type readScheduler struct {
	clock    *engine.SharedClock
	size     int // slots per lane (the queue's service; 1 = DAM-style)
	maxQueue int // admission bound across queued+running requests, all lanes

	mu      sync.Mutex //lint:lockrank 40
	lanes   []lane
	queued  int   // queued+running reads across all lanes (admission gauge)
	batches int64 // launches that opened a new start instant (metrics)
}

// newReadScheduler builds a scheduler with `lanes` independent lanes of
// `size` slots each, every slot free since virtual time zero.
func newReadScheduler(clock *engine.SharedClock, lanes, size, maxQueue int) *readScheduler {
	if lanes < 1 {
		lanes = 1
	}
	if size < 1 {
		size = 1
	}
	if maxQueue < lanes*size {
		maxQueue = lanes * size
	}
	s := &readScheduler{clock: clock, size: size, maxQueue: maxQueue, lanes: make([]lane, lanes)}
	for i := range s.lanes {
		s.lanes[i].idle = make([]sim.Time, size)
	}
	return s
}

// laneCount reports the number of lanes (for stats).
func (s *readScheduler) laneCount() int { return len(s.lanes) }

// laneOf maps a key to a lane (FNV-1a). Scans pass their low bound; a nil
// key goes to lane 0.
func (s *readScheduler) laneOf(key []byte) int {
	if len(s.lanes) == 1 {
		return 0
	}
	h := uint32(2166136261)
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	return int(h % uint32(len(s.lanes)))
}

// admit gives a read whose connection stands at cursor a slot on the lane,
// queues it behind the lane's held slots, or refuses it (admission control).
// On true the caller waits on the ticket's launched channel if it has one,
// aligns its client to ticket.start, runs the read, then calls done.
func (s *readScheduler) admit(laneIdx int, cursor sim.Time) (*ticket, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.queued >= s.maxQueue {
		return nil, false
	}
	s.queued++
	l := &s.lanes[laneIdx]
	t := &ticket{lane: laneIdx, start: cursor}
	if len(l.idle) == 0 {
		t.launched = make(chan struct{})
		l.waiting = append(l.waiting, t)
		return t, true
	}
	best := 0
	for i, free := range l.idle {
		if fitsBetter(free, l.idle[best], cursor) {
			best = i
		}
	}
	free := l.idle[best]
	l.idle[best] = l.idle[len(l.idle)-1]
	l.idle = l.idle[:len(l.idle)-1]
	s.launchLocked(l, t, free)
	return t, true
}

// fitsBetter reports whether a slot free since a suits a read at cursor
// better than one free since b: a slot that does not delay the read beats
// one that does; of two that do not, the later-freed; of two that do, the
// earlier-freed.
func fitsBetter(a, b, cursor sim.Time) bool {
	if (a <= cursor) != (b <= cursor) {
		return a <= cursor
	}
	if a <= cursor {
		return a > b
	}
	return a < b
}

// done reports a read's completion at virtual time end: the shared clock
// observes it, and its slot goes to the lane's longest-waiting read or back
// to the idle set.
func (s *readScheduler) done(t *ticket, end sim.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock.Observe(end)
	s.queued--
	l := &s.lanes[t.lane]
	if len(l.waiting) == 0 {
		l.idle = append(l.idle, end)
		return
	}
	next := l.waiting[0]
	l.waiting = l.waiting[1:]
	s.launchLocked(l, next, end)
	close(next.launched)
}

// launchLocked starts t on a slot free since `free`, which the caller has
// taken out of the idle set. read_batches counts the launches that opened a
// new start instant on their lane — every other slot was idle, or no read of
// the lane had started this late — so a lone client reads fill 1/size and
// reads sharing an instant count once. Called with mu held.
func (s *readScheduler) launchLocked(l *lane, t *ticket, free sim.Time) {
	t.start = max(t.start, free)
	if alone := len(l.idle) == s.size-1; alone || t.start > l.latest {
		s.batches++
	}
	l.latest = max(l.latest, t.start)
}

// snapshot returns (queued+running reads, batches launched) for metrics.
func (s *readScheduler) snapshot() (int, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued, s.batches
}

// The PDAM-aware read scheduler. The paper's Lemma 13 observation: a device
// serving P IOs per time step is only saturated when ~P independent requests
// are in flight per step; a scheduler admitting one request at a time (the
// DAM's implicit discipline) leaves P-1 slots idle.
//
// The scheduler groups incoming reads into batches of up to `size` (from
// the device's storage.Topology), and launches each batch at one common
// virtual instant. Every member aligns its engine client to the batch's start time
// before running, so the batch's IOs pack into the same device time steps —
// the virtual-time picture is the Lemma 13 experiment's, regardless of how
// the host kernel interleaves the handler goroutines. A short real-time
// grace window lets a partially-filled batch wait for stragglers before
// launching; it costs real latency only, never virtual throughput.
//
// Queue awareness (the multi-queue refinement): on a device with several
// submission queues the scheduler runs one independent batch LANE per
// queue, each sized to the topology's per-queue target, and requests are
// assigned lanes by key hash. Lanes launch and complete
// independently, so a slow batch on one queue never convoys the others —
// and the per-lane batch size matches what its queue can actually serve,
// instead of one global P-sized batch overcommitting the device. With one
// lane (every device without queue structure) the behavior is exactly the
// classic global scheduler.
//
// Admission control: at most maxQueue requests may be queued or running
// across all lanes. Beyond that, admit refuses and the connection answers
// StatusBusy — shedding load at the door instead of queueing without bound.
package server

import (
	"sync"
	"time"

	"iomodels/internal/engine"
	"iomodels/internal/sim"
)

// readBatch is one group of reads sharing a virtual start instant.
type readBatch struct {
	launched  chan struct{} // closed at launch; members wait on it
	start     sim.Time      // common virtual start, set at launch
	createdAt sim.Time      // clock mark when the first member arrived
	lane      int           // the lane this batch belongs to
	n         int           // members admitted
	done      int           // members finished
	end       sim.Time      // max member completion time
	ready     bool          // grace expired: launch as soon as we're head
}

// readScheduler batches read admissions across one or more lanes.
type readScheduler struct {
	clock    *engine.SharedClock
	size     int           // max batch size per lane (the queue's service; 1 = DAM-style)
	maxQueue int           // admission bound across queued+running requests, all lanes
	grace    time.Duration // how long a partial batch waits for stragglers

	mu      sync.Mutex     //lint:lockrank 40
	lanes   [][]*readBatch // per lane: queue[0] is running or next to launch
	last    []sim.Time     // per lane: end of the last completed batch
	queued  int            // total members across all lanes (admission gauge)
	batches int64          // batches launched (metrics)
}

// newReadScheduler builds the classic single-lane scheduler.
func newReadScheduler(clock *engine.SharedClock, size, maxQueue int, grace time.Duration) *readScheduler {
	return newLaneScheduler(clock, 1, size, maxQueue, grace)
}

// newLaneScheduler builds a scheduler with `lanes` independent batch lanes
// of up to `size` members each.
func newLaneScheduler(clock *engine.SharedClock, lanes, size, maxQueue int, grace time.Duration) *readScheduler {
	if lanes < 1 {
		lanes = 1
	}
	if size < 1 {
		size = 1
	}
	if maxQueue < lanes*size {
		maxQueue = lanes * size
	}
	return &readScheduler{
		clock: clock, size: size, maxQueue: maxQueue, grace: grace,
		lanes: make([][]*readBatch, lanes),
		last:  make([]sim.Time, lanes),
	}
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

// admit joins the caller into a batch on the given lane, or refuses
// (admission control). On true, the caller must wait on the batch's
// launched channel, align its client to batch.start, run the read, then
// call done.
func (s *readScheduler) admit(lane int) (*readBatch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.queued >= s.maxQueue {
		return nil, false
	}
	q := s.lanes[lane]
	var b *readBatch
	if n := len(q); n > 0 {
		if tail := q[n-1]; tail.n < s.size && !launchedOf(tail) {
			b = tail
		}
	}
	if b == nil {
		b = &readBatch{launched: make(chan struct{}), lane: lane, createdAt: s.clock.Now()}
		s.lanes[lane] = append(q, b)
		if s.grace > 0 && s.size > 1 {
			time.AfterFunc(s.grace, func() {
				s.mu.Lock()
				b.ready = true
				s.launchHeadLocked(b.lane)
				s.mu.Unlock()
			})
		} else {
			b.ready = true
		}
	}
	b.n++
	s.queued++
	s.launchHeadLocked(lane)
	return b, true
}

// done reports a member's completion at virtual time end. When the whole
// batch has finished, its max completion time becomes the shared clock's new
// mark and the lane's next batch may launch.
func (s *readScheduler) done(b *readBatch, end sim.Time) {
	s.mu.Lock()
	b.done++
	if end > b.end {
		b.end = end
	}
	s.queued--
	q := s.lanes[b.lane]
	if b.done == b.n && len(q) > 0 && q[0] == b {
		s.clock.Observe(b.end)
		if b.end > s.last[b.lane] {
			s.last[b.lane] = b.end
		}
		s.lanes[b.lane] = q[1:]
		s.launchHeadLocked(b.lane)
	}
	s.mu.Unlock()
}

// launchHeadLocked launches the lane's head batch if it is full, or its
// grace window has expired, and it has not launched yet. Called with mu
// held.
func (s *readScheduler) launchHeadLocked(lane int) {
	q := s.lanes[lane]
	if len(q) == 0 {
		return
	}
	b := q[0]
	if launchedOf(b) || b.n == 0 {
		return
	}
	if b.n >= s.size || b.ready {
		// Anchor the batch to its own lane's timeline, not the global
		// high-water mark: the lane's previous batch end, or the clock mark
		// when the batch's first member arrived, whichever is later. Other
		// lanes' completions raise the shared clock but must not push this
		// lane's start forward — that would convoy the lanes in virtual
		// time. Members align their clients forward-only, so a start behind
		// a client's own cursor never rewinds anyone.
		b.start = b.createdAt
		if s.last[lane] > b.start {
			b.start = s.last[lane]
		}
		s.batches++
		close(b.launched) // batch is now closed to joins (head + launched)
	}
}

// launchedOf reports whether b has launched (its channel is closed).
func launchedOf(b *readBatch) bool {
	select {
	case <-b.launched:
		return true
	default:
		return false
	}
}

// snapshot returns (queued members, batches launched) for metrics.
func (s *readScheduler) snapshot() (int, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued, s.batches
}

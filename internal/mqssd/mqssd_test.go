package mqssd

import (
	"testing"
	"time"

	"iomodels/internal/core"
	"iomodels/internal/sim"
	"iomodels/internal/stats"
	"iomodels/internal/storage"
)

// TestModelDegeneracy: the analytic side of the degeneracy contract (the
// device side lives in internal/pdamdev, which is built on this stepper) —
// core.MQ with one queue predicts exactly what core.PDAM predicts.
func TestModelDegeneracy(t *testing.T) {
	pd := core.PDAM{P: 16, BlockBytes: 4096, StepSeconds: 1e-3}
	mq := core.MQFromPDAM(pd)
	for p := 1; p <= 64; p *= 2 {
		got := mq.MQReadSeconds(p, 256)
		want := pd.PDAMReadSeconds(p, 256)
		if got != want {
			t.Fatalf("p=%d: MQReadSeconds %g != PDAMReadSeconds %g", p, got, want)
		}
	}
}

// TestQueueDepthCapsService: a queue of depth D < PerQueueP serves only D
// IOs per step even when uncontended.
func TestQueueDepthCapsService(t *testing.T) {
	d := New(Config{Queues: 1, PerQueueP: 8, QueueDepth: 4, BlockBytes: 4096, StepTime: sim.Millisecond})
	done := d.Submit(0, 0, 8)
	if want := 2 * sim.Millisecond; done != want {
		t.Fatalf("8 IOs at depth 4 done at %v, want %v (2 steps)", done, want)
	}
}

// TestCrossQueueInterference: two queues active in one step each serve
// fewer IOs than one queue alone would.
func TestCrossQueueInterference(t *testing.T) {
	cfg := Config{Queues: 2, PerQueueP: 8, QueueDepth: 8, Interference: 1, BlockBytes: 4096, StepTime: sim.Millisecond}
	// Alone: 8 IOs in one step.
	alone := New(cfg)
	if done := alone.Submit(0, 0, 8); done != sim.Millisecond {
		t.Fatalf("uncontended queue: done %v, want 1 step", done)
	}
	// Contended: with both queues active, each gets floor(8/(1+1)) = 4
	// slots per step, so 8 IOs take 2 steps.
	both := New(cfg)
	if done := both.Submit(0, 0, 8); done != sim.Millisecond {
		t.Fatalf("first queue: done %v, want 1 step", done)
	}
	// Queue 0 filled step 0 before queue 1 joined; its schedule stands.
	// Queue 1 now sees 2 active queues in step 0: 4 slots there, 4 in step 1.
	if done := both.Submit(1, 0, 8); done != 2*sim.Millisecond {
		t.Fatalf("second queue: done %v, want 2 steps under interference", done)
	}
}

// TestWriteQueueIsolation: with a dedicated write queue, a burst of writes
// does not delay a read; without one, the read queues behind the writes.
func TestWriteQueueIsolation(t *testing.T) {
	base := Config{Queues: 1, PerQueueP: 4, QueueDepth: 4, BlockBytes: 4096, StepTime: sim.Millisecond}

	withWQ := base
	withWQ.WriteQueue = true
	s := New(withWQ).Storage(1 << 30)
	s.Access(0, storage.Write, 0, 16*4096) // 4 steps of write backlog on the write queue
	if done := s.Access(0, storage.Read, 0, 4096); done != sim.Millisecond {
		t.Fatalf("read behind isolated writes done at %v, want 1 step", done)
	}

	s = New(base).Storage(1 << 30) // shared queue
	s.Access(0, storage.Write, 0, 16*4096)
	if done := s.Access(0, storage.Read, 0, 4096); done <= 4*sim.Millisecond {
		t.Fatalf("read sharing the write queue done at %v, want after the 4-step backlog", done)
	}
}

// TestReadStriping: reads route to queues by block address, round-robin.
func TestReadStriping(t *testing.T) {
	d := New(Config{Queues: 4, PerQueueP: 2, QueueDepth: 2, BlockBytes: 4096, StepTime: sim.Millisecond})
	for block := int64(0); block < 8; block++ {
		q := d.QueueFor(storage.Read, block*4096)
		if want := int(block % 4); q != want {
			t.Fatalf("block %d routed to queue %d, want %d", block, q, want)
		}
	}
	// Striped reads land in distinct queues and share the step: 4 one-block
	// reads at consecutive block addresses all finish in step 0.
	s := New(Config{Queues: 4, PerQueueP: 1, QueueDepth: 1, BlockBytes: 4096, StepTime: sim.Millisecond}).Storage(1 << 30)
	for i := int64(0); i < 4; i++ {
		if done := s.Access(0, storage.Read, i*4096, 4096); done != sim.Millisecond {
			t.Fatalf("striped read %d done at %v, want 1 step", i, done)
		}
	}
}

// TestTopology: Parallelism is the effective (depth- and
// interference-capped) parallelism; the per-queue outstanding target is the
// depth (capped by the slot count), bracketed between the effective and raw
// parallelism.
func TestTopology(t *testing.T) {
	s := New(DefaultConfig()).Storage(1 << 30)
	topo := storage.TopologyOf(s)
	cfg := s.Params()
	if topo.Queues != cfg.Queues || topo.PerQueue != cfg.QueueDepth {
		t.Fatalf("Topology = %+v, want %d queues of %d", topo, cfg.Queues, cfg.QueueDepth)
	}
	if topo.Queues*topo.PerQueue < topo.Parallelism {
		t.Fatalf("in-flight %d×%d below Parallelism %d", topo.Queues, topo.PerQueue, topo.Parallelism)
	}
	if raw := cfg.Queues * cfg.PerQueueP; topo.Parallelism >= raw {
		t.Fatalf("effective parallelism %d not below raw slot count %d — profile has no headroom to model", topo.Parallelism, raw)
	}
	if got := cfg.Model().EffectiveParallelism(); got != topo.Parallelism {
		t.Fatalf("model EffectiveParallelism %d != Parallelism %d", got, topo.Parallelism)
	}
}

// TestReboot: a power cycle forgets queue backlog.
func TestReboot(t *testing.T) {
	s := New(Config{Queues: 1, PerQueueP: 1, QueueDepth: 1, BlockBytes: 4096, StepTime: sim.Millisecond}).Storage(1 << 30)
	s.Access(0, storage.Read, 0, 8*4096) // 8 steps of backlog
	s.Reboot()
	if done := s.Access(0, storage.Read, 0, 4096); done != sim.Millisecond {
		t.Fatalf("read after reboot done at %v, want 1 step", done)
	}
}

// bookkeeping counts every step entry the device holds.
func (d *Device) bookkeeping() int {
	n := len(d.active)
	for _, usage := range d.usage {
		n += len(usage)
	}
	return n
}

// TestBookkeepingBoundedWithIdleQueues is the regression test for the
// active-map leak: on the default profile (dedicated write queue) a
// read-only run never submits on the write queue, and the old prune trimmed
// the shared active map against the laggiest queue's horizon — 0 for a queue
// that never submits — so the map grew by an entry per step forever and each
// prune rescanned all of it. Bookkeeping must stay within the prune window
// whatever subset of queues is busy, and the host cost per IO must not grow
// with run length. The mirror case (writes only, read queues idle) likewise.
func TestBookkeepingBoundedWithIdleQueues(t *testing.T) {
	const ios = 200_000
	// run drives ios serial IOs of one kind through a fresh default device,
	// checks the bookkeeping bound after each, and returns the host ns/IO
	// over the first and the last tenth of the run: the median of ten
	// slices each, which shrugs off a GC pause or a descheduling.
	run := func(op storage.Op) (first, last float64) {
		s := New(DefaultConfig()).Storage(1 << 30)
		block := s.Params().BlockBytes
		bound := 2 * pruneWindow * len(s.dev.usage)
		rng := stats.NewRNG(7)
		var now sim.Time
		var slices []float64
		mark := time.Now()
		for i := 0; i < ios; i++ {
			now = s.Access(now, op, rng.Int63n(1<<18)*block, block) // serial: one IO per step
			if n := s.dev.bookkeeping(); n > bound {
				t.Fatalf("%v-only: %d bookkeeping entries after %d IOs, want ≤ %d", op, n, i+1, bound)
			}
			if (i+1)%(ios/100) == 0 {
				slices = append(slices, float64(time.Since(mark))/(ios/100))
				mark = time.Now()
			}
		}
		return stats.Summarize(slices[:10]).Median, stats.Summarize(slices[90:]).Median
	}
	for _, op := range []storage.Op{storage.Read, storage.Write} {
		// The leak made the last tenth ~3× the first at this length (and
		// growing); bounded bookkeeping keeps them level. A burst of host
		// load over one tenth is transient and a leak is not, so a run that
		// looks bad gets two more chances.
		var first, last float64
		for attempt := 0; attempt < 3; attempt++ {
			if first, last = run(op); last <= 2*first {
				break
			}
		}
		if last > 2*first {
			t.Errorf("%v-only: ns/IO over the last 10%% of the run is %.0f, over the first 10%% %.0f — cost grows with run length",
				op, last, first)
		}
	}
}

// TestStaleSubmissionServedAtWindowEdge: a client whose cursor trails the
// newest submission by more than the device remembers — a serving connection
// that only hit cache, or sat idle, while the others ran on — must not be
// charged against steps whose bookkeeping is gone: they read "empty" however
// full they were. It is served from the oldest step the device still knows
// exactly, and its IO is booked there.
func TestStaleSubmissionServedAtWindowEdge(t *testing.T) {
	d := New(Config{Queues: 1, PerQueueP: 2, BlockBytes: 4096, StepTime: sim.Millisecond})
	var now sim.Time
	for d.StepOf(now) < 20_000 {
		now = d.Submit(0, now, 1) // a serial client: one of each step's two slots
	}
	newest := d.StepOf(now) - 1
	edge := d.oldestExact()
	if back := newest - edge; back < pruneWindow-1 || back >= 2*pruneWindow {
		t.Fatalf("oldest exact step is %d behind the newest, want within [%d, %d)", back, pruneWindow-1, 2*pruneWindow)
	}
	stale := sim.Time(newest-10_000) * d.cfg.StepTime
	if got, want := d.Submit(0, stale, 1), d.EndOfStep(edge); got != want {
		t.Fatalf("read 10,000 steps behind the newest done at %v (step %d), want the window's edge %v (step %d)",
			got, d.StepOf(got)-1, want, edge)
	}
	if used := d.usage[0][edge]; used != 2 {
		t.Fatalf("edge step holds %d IOs after the stale read, want the serial client's and the stale one", used)
	}
	// The edge step is full now: the next stale read takes the one after.
	if got, want := d.Submit(0, stale, 1), d.EndOfStep(edge+1); got != want {
		t.Fatalf("second stale read done at %v, want %v", got, want)
	}
	// A cursor inside the window is served where it stands, as ever.
	near := sim.Time(newest-100) * d.cfg.StepTime
	if got, want := d.Submit(0, near, 1), d.EndOfStep(newest-100); got != want {
		t.Fatalf("read 100 steps behind done at %v, want its own step's end %v", got, want)
	}
}

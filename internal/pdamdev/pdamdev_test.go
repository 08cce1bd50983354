package pdamdev

import (
	"testing"

	"iomodels/internal/mqssd"
	"iomodels/internal/sim"
	"iomodels/internal/stats"
	"iomodels/internal/storage"
)

func TestSubmitWithinOneStep(t *testing.T) {
	d := New(4, 4096, sim.Millisecond)
	done := d.Submit(0, 3)
	if done != sim.Millisecond {
		t.Fatalf("done = %v, want end of step 0", done)
	}
	// One slot left in step 0.
	if d.SlotsFreeAt(0) != 1 {
		t.Fatalf("free = %d", d.SlotsFreeAt(0))
	}
}

func TestSubmitSpillsToNextStep(t *testing.T) {
	d := New(2, 4096, sim.Millisecond)
	done := d.Submit(0, 5) // 2+2+1 across steps 0,1,2
	if done != 3*sim.Millisecond {
		t.Fatalf("done = %v, want end of step 2", done)
	}
	if d.mq.TotalIOs != 5 {
		t.Fatalf("TotalIOs = %d", d.mq.TotalIOs)
	}
}

func TestLaterArrivalUsesItsOwnStep(t *testing.T) {
	d := New(2, 4096, sim.Millisecond)
	d.Submit(0, 2) // fills step 0
	done := d.Submit(sim.Millisecond+1, 1)
	if done != 2*sim.Millisecond {
		t.Fatalf("done = %v, want end of step 1", done)
	}
}

func TestContentionBetweenClients(t *testing.T) {
	d := New(2, 4096, sim.Millisecond)
	a := d.Submit(0, 2)
	b := d.Submit(0, 2) // same step, no slots left: pushed to step 1
	if a != sim.Millisecond || b != 2*sim.Millisecond {
		t.Fatalf("a=%v b=%v", a, b)
	}
}

func TestZeroSubmit(t *testing.T) {
	d := New(2, 4096, sim.Millisecond)
	if got := d.Submit(42, 0); got != 42 {
		t.Fatalf("Submit(_, 0) = %v", got)
	}
}

func TestNegativeSubmitPanics(t *testing.T) {
	d := New(2, 4096, sim.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Submit(0, -1)
}

func TestStepOf(t *testing.T) {
	d := New(1, 1, 10)
	if d.StepOf(0) != 0 || d.StepOf(9) != 0 || d.StepOf(10) != 1 {
		t.Fatal("StepOf wrong")
	}
	if d.EndOfStep(0) != 10 || d.EndOfStep(3) != 40 {
		t.Fatal("EndOfStep wrong")
	}
}

func TestThroughputSaturatesAtP(t *testing.T) {
	// 8 clients on a P=4 device, each needing 1 IO per "query": per step only
	// 4 complete, so 80 queries take 20 steps.
	d := New(4, 4096, sim.Millisecond)
	eng := sim.New()
	var finish sim.Time
	for c := 0; c < 8; c++ {
		eng.Go(func(p *sim.Proc) {
			for q := 0; q < 10; q++ {
				done := d.Submit(p.Now(), 1)
				p.SleepUntil(done)
			}
			if p.Now() > finish {
				finish = p.Now()
			}
		})
	}
	eng.Run()
	if finish != 20*sim.Millisecond {
		t.Fatalf("finish = %v, want 20ms", finish)
	}
}

func TestPruneKeepsCorrectness(t *testing.T) {
	d := New(1, 1, 1)
	var now sim.Time
	for i := 0; i < 10000; i++ {
		now = d.Submit(now, 1)
	}
	if now != 10000 {
		t.Fatalf("now = %v", now)
	}
}

func TestInvalidNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 4096, sim.Millisecond)
}

// TestParamsRoundTrip: what the serving and observability layers read off
// the device is exactly its configuration — the name and Params echo
// (P, B, step), the topology is one queue of P, and the device's own
// completion times follow the PDAM closed form (this device IS the model).
func TestParamsRoundTrip(t *testing.T) {
	const wantP, wantB = 6, int64(8 << 10)
	wantStep := 2 * sim.Millisecond
	s := New(wantP, wantB, wantStep).Storage(1 << 30)
	if c := s.Params(); c.Queues != 1 || c.PerQueueP != wantP || c.QueueDepth != wantP ||
		c.BlockBytes != wantB || c.StepTime != wantStep || c.Interference != 0 || c.WriteQueue {
		t.Fatalf("Params = %+v, want the one-queue (P=%d, B=%d, step=%v) stepper", c, wantP, wantB, wantStep)
	}
	if got, want := s.Name(), "pdam(P=6,B=8192)"; got != want {
		t.Fatalf("Name = %q, want %q", got, want)
	}
	if got, want := storage.TopologyOf(s), (storage.Topology{Queues: 1, PerQueue: wantP, Parallelism: wantP}); got != want {
		t.Fatalf("Topology = %+v, want %+v", got, want)
	}
	// 3P blocks from t=0 pack P per step: done at the end of step 2, which
	// is what the closed form says for one thread issuing 3P blocks.
	done := s.Access(0, storage.Read, 0, 3*int64(wantP)*wantB)
	if want := 3 * wantStep; done != want {
		t.Fatalf("3P blocks done at %v, want %v", done, want)
	}
}

// refDevice is the stepper this package carried before it became a
// constructor over mqssd, kept as the oracle the constructor is compared
// against — minus its prune, which dropped every step before the submitting
// one and so let a client trailing by a step re-use slots that were taken.
// Without it the oracle is Definition 1 itself: a map that never forgets.
type refDevice struct {
	p     int
	step  sim.Time
	usage map[int64]int
}

func (d *refDevice) stepOf(t sim.Time) int64 { return int64(t) / int64(d.step) }

func (d *refDevice) submit(now sim.Time, n int) sim.Time {
	if n == 0 {
		return now
	}
	step := d.stepOf(now)
	var done sim.Time
	for n > 0 {
		if free := d.p - d.usage[step]; free > 0 {
			take := min(free, n)
			d.usage[step] += take
			n -= take
			done = sim.Time(step+1) * d.step
		}
		step++
	}
	return done
}

// TestMatchesReferenceStepper: on random (now, n) submissions — time
// advancing irregularly, sometimes jumping back behind an earlier
// submission the way a trailing client's cursor does, across several of the
// stepper's prune windows — the constructor's completion times and
// free-slot counts equal the old stepper's, for P = 1, 3, 16.
func TestMatchesReferenceStepper(t *testing.T) {
	step := sim.Millisecond
	for _, p := range []int{1, 3, 16} {
		d := New(p, 4096, step)
		ref := &refDevice{p: p, step: step, usage: make(map[int64]int)}
		rng := stats.NewRNG(uint64(p))
		var now sim.Time
		for i := 0; i < 30000; i++ {
			at := now
			if rng.Int63n(5) == 0 { // out of order: up to 3 steps behind
				if at -= sim.Time(rng.Int63n(3 * int64(step))); at < 0 {
					at = 0
				}
			}
			n := int(rng.Int63n(int64(2*p) + 2)) // 0 .. 2P+1 blocks
			got, want := d.Submit(at, n), ref.submit(at, n)
			if got != want {
				t.Fatalf("P=%d op %d: Submit(%v, %d) = %v, reference %v", p, i, at, n, got, want)
			}
			if free, want := d.SlotsFreeAt(at), p-ref.usage[ref.stepOf(at)]; free != want {
				t.Fatalf("P=%d op %d: SlotsFreeAt(%v) = %d, reference %d", p, i, at, free, want)
			}
			if rng.Int63n(3) == 0 {
				now = got // a dependent client: next IO when this one completes
			} else {
				now += sim.Time(rng.Int63n(int64(step)))
			}
		}
		if d.StepOf(now) < 3*4096 {
			t.Fatalf("P=%d: run ended at step %d, inside the stepper's first prune windows", p, d.StepOf(now))
		}
	}
}

// TestMQDegeneratesToPDAM is the contract test from the stepper's side: any
// one-queue, depth ≥ P configuration without a write queue — whatever its
// interference coefficient — produces exactly this device's completion
// times for any access sequence. The MQ is a refinement, not a different
// model.
func TestMQDegeneratesToPDAM(t *testing.T) {
	const p, block = 8, int64(4 << 10)
	step := sim.Millisecond
	mq := mqssd.New(mqssd.Config{
		Queues: 1, PerQueueP: p, QueueDepth: 2 * p, Interference: 0.5, // depth beyond P and β must be irrelevant at Q=1
		BlockBytes: block, StepTime: step,
	}).Storage(1 << 30)
	pd := New(p, block, step).Storage(1 << 30)

	rng := stats.NewRNG(42)
	var now sim.Time
	for i := 0; i < 2000; i++ {
		op := storage.Read
		if rng.Int63n(4) == 0 {
			op = storage.Write
		}
		off := rng.Int63n(1<<20) * block
		size := (1 + rng.Int63n(6)) * block
		a := mq.Access(now, op, off, size)
		b := pd.Access(now, op, off, size)
		if a != b {
			t.Fatalf("op %d: mq done %v != pdam done %v (now %v, size %d)", i, a, b, now, size)
		}
		// Drive time forward irregularly, sometimes within the same step.
		if rng.Int63n(3) == 0 {
			now = a
		} else {
			now += sim.Time(rng.Int63n(int64(step)))
		}
	}
	if got := mq.Topology().Parallelism; got != p {
		t.Fatalf("Parallelism = %d, want %d", got, p)
	}
}

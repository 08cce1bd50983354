package obs

import (
	"sync"
	"testing"

	"iomodels/internal/core"
	"iomodels/internal/pdamdev"
	"iomodels/internal/sim"
	"iomodels/internal/stats"
	"iomodels/internal/storage"
)

// TestNilSafety: the disabled-tracing contract — a nil tracer and a nil
// span absorb every call, so the engine's hooks need only a pointer check.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin("get", 1, 0)
	if sp != nil {
		t.Fatalf("nil tracer Begin = %v, want nil", sp)
	}
	sp.IO(LayerTree, storage.Read, 0, 4096, 0, sim.Millisecond)
	sp.CacheHit(0)
	sp.CacheMiss(0)
	sp.Evict(true, 0)
	sp.WALAppend(64, 0)
	sp.WALCommit(0, sim.Millisecond)
	tr.Finish(sp, 0)
	if got := tr.Summary(); got.Ops != 0 || got.Spans != 0 {
		t.Fatalf("nil tracer summary = %+v, want zero", got)
	}
	if tr.Spans() != nil {
		t.Fatal("nil tracer Spans() != nil")
	}
}

// TestSampling: SampleEvery = n traces one in n operations; the summary
// still counts every offered op.
func TestSampling(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 4})
	traced := 0
	for i := 0; i < 100; i++ {
		sp := tr.Begin("get", 1, sim.Time(i))
		if sp != nil {
			traced++
			tr.Finish(sp, sim.Time(i+1))
		}
	}
	if traced != 25 {
		t.Fatalf("traced %d of 100 at 1-in-4, want 25", traced)
	}
	sum := tr.Summary()
	if sum.Ops != 100 || sum.Spans != 25 || sum.SampleEvery != 4 {
		t.Fatalf("summary ops=%d spans=%d sample=%d, want 100/25/4",
			sum.Ops, sum.Spans, sum.SampleEvery)
	}
}

// TestRingRetention: the export ring keeps the most recent Retain spans,
// oldest first, while totals keep counting.
func TestRingRetention(t *testing.T) {
	tr := NewTracer(Config{Retain: 8})
	for i := 0; i < 20; i++ {
		sp := tr.Begin("get", 1, sim.Time(i))
		sp.IO(LayerTree, storage.Read, int64(i)*4096, 4096, sim.Time(i), sim.Millisecond)
		tr.Finish(sp, sim.Time(i+1))
	}
	spans := tr.Spans()
	if len(spans) != 8 {
		t.Fatalf("retained %d spans, want 8", len(spans))
	}
	for i, sp := range spans {
		if want := uint64(13 + i); sp.ID != want {
			t.Fatalf("span[%d].ID = %d, want %d (oldest first)", i, sp.ID, want)
		}
	}
	sum := tr.Summary()
	if sum.Spans != 20 || sum.Retained != 8 {
		t.Fatalf("spans=%d retained=%d, want 20/8", sum.Spans, sum.Retained)
	}
	if len(sum.Layers) != 1 || sum.Layers[0].IOs != 20 || sum.Layers[0].Bytes != 20*4096 {
		t.Fatalf("layer totals = %+v, want 20 IOs / %d bytes", sum.Layers, 20*4096)
	}
}

// TestTracerConcurrent hammers Begin/Finish from many goroutines while
// others snapshot, exercising the tracer's locking under the race detector.
// Each worker plays an engine client: clients are single-goroutine, so each
// span is built by one goroutine and handed to Finish.
func TestTracerConcurrent(t *testing.T) {
	const workers, perWorker = 8, 250
	tr := NewTracer(Config{Retain: 64, Models: &Models{
		Device: "flat",
		Affine: core.Affine{Setup: 1e-3, PerByte: 1e-9},
		DAM:    core.DAM{BlockBytes: 4096, UnitCost: 2e-3},
		PDAM:   core.PDAM{P: 4, BlockBytes: 4096, StepSeconds: 2e-3},
	}})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.Summary()
				tr.Spans()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				now := sim.Time(i) * sim.Millisecond
				sp := tr.Begin("get", int64(w), now)
				sp.CacheMiss(now)
				sp.IO(LayerPager, storage.Read, int64(i)*4096, 4096, now, sim.Millisecond)
				sp.Evict(w%2 == 0, now)
				sp.WALAppend(32, now)
				tr.Finish(sp, now+sim.Millisecond)
			}
		}()
	}
	close(stop)
	wg.Wait()
	sum := tr.Summary()
	total := int64(workers * perWorker)
	if sum.Ops != total || sum.Spans != total {
		t.Fatalf("ops=%d spans=%d, want %d", sum.Ops, sum.Spans, total)
	}
	if sum.Counts.Misses != total || sum.Counts.Evictions != total ||
		sum.Counts.Writebacks != total/2 || sum.Counts.WALAppends != total {
		t.Fatalf("counts = %+v, want %d misses/evictions/appends, %d writebacks",
			sum.Counts, total, total/2)
	}
	if len(sum.Layers) != 1 || sum.Layers[0].IOs != total {
		t.Fatalf("layers = %+v, want %d pager IOs", sum.Layers, total)
	}
	if len(sum.Residuals) == 0 {
		t.Fatal("accountant recorded no residuals")
	}
	if len(tr.Spans()) != 64 {
		t.Fatalf("retained %d, want 64", len(tr.Spans()))
	}
}

// TestPredictions pins the three models' cost formulas on hand-checkable
// parameters.
func TestPredictions(t *testing.T) {
	m := Models{
		Affine:         core.Affine{Setup: 0.01, PerByte: 1e-8},                 // s=10ms, t=10ns/B
		DAM:            core.DAM{BlockBytes: 1 << 20, UnitCost: 0.02},           // B=1MiB, 20ms/block
		PDAM:           core.PDAM{P: 4, BlockBytes: 1 << 20, StepSeconds: 0.02}, // P=4
		SatBytesPerSec: 4 * float64(1<<20) / 0.02,
	}
	approx := func(got, want float64) bool { return got > want*0.999 && got < want*1.001 }

	// Affine: s + t·x, concurrency-blind.
	if got := m.Predict(ModelAffine, 1<<20, 8); !approx(got, 0.01+1e-8*float64(1<<20)) {
		t.Fatalf("affine(1MiB) = %g", got)
	}
	// DAM: blocks round up and serialize behind the competing load.
	if got := m.Predict(ModelDAM, 1, 1); !approx(got, 0.02) {
		t.Fatalf("dam(1B, conc 1) = %g, want one block", got)
	}
	if got := m.Predict(ModelDAM, 3<<20, 2); !approx(got, 3*0.02*2) {
		t.Fatalf("dam(3MiB, conc 2) = %g, want 0.12", got)
	}
	// PDAM below the knee: one step per block regardless of concurrency...
	if got := m.Predict(ModelPDAM, 1<<20, 3); !approx(got, 0.02) {
		t.Fatalf("pdam(1MiB, conc 3) = %g, want one step", got)
	}
	// ...past the knee it queues by conc/P (8/4 = 2x).
	if got := m.Predict(ModelPDAM, 1<<20, 8); !approx(got, 0.04) {
		t.Fatalf("pdam(1MiB, conc 8) = %g, want two steps", got)
	}
}

// TestPDAMModelsAreTheOneQueueMQ: the PDAM device is the one-queue stepper,
// so its models come from ExactMQ — and they are field for field what the
// Definition 1 closed form says (what the deleted ExactPDAM computed):
// affine s = step and t = step/(P·B), one block per DAM step, an MQ reading
// that is MQFromPDAM of the PDAM reading, and the PDAM's own name.
func TestPDAMModelsAreTheOneQueueMQ(t *testing.T) {
	const p, block = 6, int64(8 << 10)
	step := 2 * sim.Millisecond
	dev := pdamdev.New(p, block, step).Storage(1 << 30)
	got, ok := ModelsFor(dev, CalibrationConfig{})
	if !ok {
		t.Fatal("ModelsFor(pdam) not ok")
	}
	secs := step.Seconds()
	pd := core.PDAM{P: p, BlockBytes: float64(block), StepSeconds: secs}
	want := Models{
		Device:         "pdam(P=6,B=8192)",
		Affine:         core.Affine{Setup: secs, PerByte: secs / (float64(p) * float64(block))},
		AffineR2:       1,
		DAM:            core.DAM{BlockBytes: float64(block), UnitCost: secs},
		PDAM:           pd,
		MQ:             core.MQFromPDAM(pd),
		PDAMR2:         1,
		SatBytesPerSec: float64(p) * float64(block) / secs,
	}
	if got != want {
		t.Fatalf("ModelsFor(pdam) =\n%+v\nwant\n%+v", got, want)
	}
}

// TestConcurrencySurvivesUnalignedCursors: the concurrency estimate is IO
// busy time per unit of clock-mark advance, so it counts streams that run
// hundreds of steps apart in virtual time. Sixteen serial streams, each on
// its own cursor up to 200 steps either side of the middle, keep sixteen IOs
// in flight per step of the mark; the hull of their IOs' own intervals is
// the drift between them, and dividing by it reads ~1.
func TestConcurrencySurvivesUnalignedCursors(t *testing.T) {
	const step = sim.Millisecond
	run := func(streams int) float64 {
		tr := NewTracer(Config{})
		rng := stats.NewRNG(uint64(streams))
		cursor := make([]sim.Time, streams)
		for i := range cursor {
			cursor[i] = 1000 * step
			if streams > 1 {
				cursor[i] += sim.Time(i*400/(streams-1)-200) * step
			}
		}
		order := make([]int, streams)
		for i := range order {
			order[i] = i
		}
		for round := 0; round < 600; round++ {
			// The host finishes the streams' spans in no particular order.
			for i := streams - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				order[i], order[j] = order[j], order[i]
			}
			for _, s := range order {
				sp := tr.Begin("get", int64(s), cursor[s])
				for io := 0; io < 2; io++ {
					sp.IO(LayerPager, storage.Read, 0, 4096, cursor[s], step)
					cursor[s] += step
				}
				tr.Finish(sp, cursor[s])
			}
		}
		return tr.Summary().AvgConcurrency
	}
	if got := run(16); got < 14 || got > 16 {
		t.Errorf("16 serial streams ±200 steps apart: avg concurrency %.2f, want 14–16", got)
	}
	if got := run(1); got != 1 {
		t.Errorf("one serial stream: avg concurrency %.2f, want 1", got)
	}
}

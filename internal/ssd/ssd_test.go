package ssd

import (
	"testing"

	"iomodels/internal/fit"
	"iomodels/internal/sim"
	"iomodels/internal/stats"
	"iomodels/internal/storage"
)

func TestSingleIOLatency(t *testing.T) {
	// A 64 KiB read stripes into four pieces whose cells run in parallel;
	// on an idle device its latency sits between one piece's full service
	// time and four pieces served serially.
	p := DefaultProfile()
	d := New(p)
	done := d.Access(0, storage.Read, 0, 64<<10)
	xfer := sim.FromSeconds(float64(p.StripeBytes) / p.ChanBandwidth)
	min := p.PieceTime(p.StripeBytes) + xfer
	max := 4 * (p.PieceTime(p.StripeBytes) + xfer)
	if done < min || done >= max {
		t.Fatalf("latency = %v, want in [%v, %v)", done, min, max)
	}
}

func TestWritesSlowerThanReads(t *testing.T) {
	p := DefaultProfile()
	r := New(p).Access(0, storage.Read, 0, 64<<10)
	w := New(p).Access(0, storage.Write, 0, 64<<10)
	if w <= r {
		t.Fatalf("write %v not slower than read %v", w, r)
	}
}

func TestDistinctDiesServeInParallel(t *testing.T) {
	p := DefaultProfile()
	d := New(p)
	// Two IOs on different dies at the same instant: both finish near the
	// single-IO latency (channel contention only).
	d1 := d.Access(0, storage.Read, 0, 64<<10)
	d2 := d.Access(0, storage.Read, 64<<10, 64<<10) // next stripe -> next die
	solo := New(p).Access(0, storage.Read, 0, 64<<10)
	if d2 >= 2*solo {
		t.Fatalf("parallel IO serialized: %v vs solo %v", d2, solo)
	}
	_ = d1
}

func TestSameDieSerializes(t *testing.T) {
	// Two single-stripe reads that wrap to the same die must queue at the
	// cell level: the second finishes at least one cell time after the
	// first started its cell.
	p := DefaultProfile()
	d := New(p)
	d1 := d.Access(0, storage.Read, 0, p.StripeBytes)
	d2 := d.Access(0, storage.Read, int64(p.Dies())*p.StripeBytes, p.StripeBytes)
	if d2 < d1 || d2 < 2*p.PieceTime(p.StripeBytes) {
		t.Fatalf("same-die IOs overlapped: %v then %v (cell %v)", d1, d2, p.PieceTime(p.StripeBytes))
	}
}

func TestLargeIOStripes(t *testing.T) {
	p := DefaultProfile()
	// A 4-stripe IO on an idle device engages multiple dies, so it takes
	// far less than 4x the single-stripe latency.
	d := New(p)
	big := d.Access(0, storage.Read, 0, 4*p.StripeBytes)
	solo := New(p).Access(0, storage.Read, 0, p.StripeBytes)
	if big >= 4*solo {
		t.Fatalf("striping gave no parallelism: %v vs 4x %v", big, solo)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := New(DefaultProfile())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Access(0, storage.Read, d.Capacity(), 1)
}

// threadScaling runs the Figure 1 experiment in miniature: p simulated
// threads, each issuing n dependent 64KiB random reads, returning the
// completion time of the slowest thread.
func threadScaling(prof Profile, p, n int, seed uint64) sim.Time {
	eng := sim.New()
	dev := New(prof)
	root := stats.NewRNG(seed)
	var last sim.Time
	for i := 0; i < p; i++ {
		rng := root.Split(uint64(i))
		eng.Go(func(pr *sim.Proc) {
			const size = 64 << 10
			for j := 0; j < n; j++ {
				off := rng.Int63n((prof.Capacity()-size)/size) * size
				done := dev.Access(pr.Now(), storage.Read, off, size)
				pr.SleepUntil(done)
			}
			if pr.Now() > last {
				last = pr.Now()
			}
		})
	}
	eng.Run()
	return last
}

// TestThreadScalingShape checks the PDAM's qualitative prediction on every
// profile: time is nearly flat for very small thread counts and nearly
// linear at large counts.
func TestThreadScalingShape(t *testing.T) {
	for _, prof := range Profiles() {
		t1 := threadScaling(prof, 1, 400, 1)
		t2 := threadScaling(prof, 2, 400, 2)
		t32 := threadScaling(prof, 32, 400, 3)
		t64 := threadScaling(prof, 64, 400, 4)
		if r := t2.Seconds() / t1.Seconds(); r > 1.5 {
			t.Errorf("%s: time doubled already at p=2 (ratio %.2f)", prof.Name, r)
		}
		if r := t64.Seconds() / t32.Seconds(); r < 1.7 || r > 2.3 {
			t.Errorf("%s: saturated region not linear: t64/t32 = %.2f", prof.Name, r)
		}
	}
}

// TestDerivedParallelism reproduces Table 1 in miniature: derive P by
// flat-then-linear segmented regression and compare to the paper's
// measurement for that device.
func TestDerivedParallelism(t *testing.T) {
	want := map[string]float64{
		"Samsung 860 pro":   3.3,
		"Samsung 970 pro":   5.5,
		"Silicon Power S55": 2.9,
		"Sandisk Ultra II":  4.6,
	}
	for _, prof := range Profiles() {
		var xs, ys []float64
		for _, p := range []int{1, 2, 4, 8, 16, 32, 64} {
			tt := threadScaling(prof, p, 200, uint64(p))
			xs = append(xs, float64(p))
			ys = append(ys, tt.Seconds())
		}
		seg, err := fit.FlatThenLinear(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		target := want[prof.Name]
		if seg.Knee < target*0.55 || seg.Knee > target*1.8 {
			t.Errorf("%s: derived P = %.2f, paper measured %.1f", prof.Name, seg.Knee, target)
		}
		if seg.R2 < 0.97 {
			t.Errorf("%s: R2 = %.4f", prof.Name, seg.R2)
		}
	}
}

func TestSaturationBandwidth(t *testing.T) {
	targets := map[string]float64{
		"Samsung 860 pro":   530e6,
		"Samsung 970 pro":   2500e6,
		"Silicon Power S55": 260e6,
		"Sandisk Ultra II":  520e6,
	}
	for _, prof := range Profiles() {
		got := prof.SaturationBandwidth(64 << 10)
		want := targets[prof.Name]
		if got < want*0.7 || got > want*1.3 {
			t.Errorf("%s: saturation %.0f MB/s, paper %.0f MB/s", prof.Name, got/1e6, want/1e6)
		}
	}
}

func TestInvalidProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Profile{})
}

// TestTopologyMatchesGeometry: the topology the read scheduler sizes its
// batches from is one pool of die-count slots — the geometry's parallelism
// upper bound — for every built-in profile, and tracks a custom geometry
// exactly.
func TestTopologyMatchesGeometry(t *testing.T) {
	for _, prof := range Profiles() {
		dies := prof.Channels * prof.DiesPerChannel
		if got, want := storage.TopologyOf(New(prof)), (storage.Topology{Queues: 1, PerQueue: dies, Parallelism: dies}); got != want {
			t.Errorf("%s: Topology = %+v, want %+v", prof.Name, got, want)
		}
	}
	prof := DefaultProfile()
	prof.Channels, prof.DiesPerChannel = 3, 5
	if p := New(prof).Topology().Parallelism; p != 15 {
		t.Errorf("custom geometry: Parallelism = %d, want 15", p)
	}
}

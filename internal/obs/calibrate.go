// Calibration: fit the DAM/affine/PDAM parameters of a device the same way
// the paper derives them — an IO-size sweep for s and t (§4.2, Table 2)
// and a thread-scaling sweep for P and ∝PB (§4.1, Figure 1 / Table 1) —
// so the accountant's predictions come from measurement, not from the
// simulator's configuration. The sweeps run on a FRESH device built from
// the live device's profile: probing the serving device would perturb its
// queue state and violate the stores' non-decreasing-time contract. All
// probing goes through storage.Store.Meter, the sanctioned no-byte probe
// (see the enginebypass analyzer).
package obs

import (
	"fmt"
	"math"

	"iomodels/internal/core"
	"iomodels/internal/fit"
	"iomodels/internal/hdd"
	"iomodels/internal/mqssd"
	"iomodels/internal/pdamdev"
	"iomodels/internal/sim"
	"iomodels/internal/ssd"
	"iomodels/internal/stats"
	"iomodels/internal/storage"
)

// CalibrationConfig shapes the fitting sweeps.
type CalibrationConfig struct {
	// BlockBytes is the PDAM block size B: the IO size of the thread sweep
	// and the block quantum of the DAM/PDAM predictions. Calibrate at the
	// workload's dominant IO size (the tree's node size); the paper uses
	// 64 KiB. Default 64 KiB.
	BlockBytes int64
	// RegionBytes, when > 0, confines the sweeps' random offsets to the
	// first RegionBytes of the device: calibrating at the workload's spatial
	// locality. The hdd model's seek time grows with distance, so a workload
	// confined to a few GB of a TB drive pays much less setup than the
	// whole-device Table 2 sweep would fit — pass the engine's allocator
	// high-water mark to predict what the workload will actually see.
	// 0 sweeps the whole device.
	RegionBytes int64
}

func (c CalibrationConfig) withDefaults() CalibrationConfig {
	if c.BlockBytes <= 0 {
		c.BlockBytes = 64 << 10
	}
	return c
}

// calibSeed drives the calibration sweeps' random offsets.
const calibSeed = 1

// ModelsFor calibrates models for the given live device by type-switching
// on the known simulators and rebuilding a fresh instance from the same
// profile. Unknown device types report ok = false.
func ModelsFor(dev storage.Device, cfg CalibrationConfig) (Models, bool) {
	switch d := dev.(type) {
	case *hdd.Disk:
		m, err := CalibrateHDD(d.Profile(), cfg)
		return m, err == nil
	case *ssd.Disk:
		m, err := CalibrateSSD(d.Profile(), cfg)
		return m, err == nil
	case *pdamdev.Storage:
		// Definition 1 is the one-queue MQ: P = PerQueueP, affine s = step
		// and t = step/(P·B) exactly. Only the name is the PDAM's own.
		m := ExactMQ(d.Storage)
		m.Device = d.Name()
		return m, true
	case *mqssd.Storage:
		return ExactMQ(d), true
	}
	return Models{}, false
}

// CalibrateHDD fits a serial device: the Table 2 IO-size sweep yields the
// affine s and t; Lemma 1 turns them into the DAM (block = half-bandwidth
// point s/t, unit cost 2s); and the PDAM degenerates to the DAM with
// P = 1 — a disk with one head has no step parallelism to discover, which
// is exactly why the affine refinement is the one that matters there (§2).
func CalibrateHDD(prof hdd.Profile, cfg CalibrationConfig) (Models, error) {
	cfg = cfg.withDefaults()
	st := storage.NewStore(hdd.New(prof, calibSeed))
	affine, r2, err := sizeSweep(st, sweepSpan(prof.Capacity(), cfg))
	if err != nil {
		return Models{}, fmt.Errorf("obs: hdd size sweep: %w", err)
	}
	dam := core.DAMFromAffine(affine)
	pd := core.PDAM{P: 1, BlockBytes: dam.BlockBytes, StepSeconds: dam.UnitCost}
	return Models{
		Device:         prof.Name,
		Affine:         affine,
		AffineR2:       r2,
		DAM:            dam,
		PDAM:           pd,
		MQ:             core.MQFromPDAM(pd),
		PDAMR2:         r2,
		SatBytesPerSec: dam.BlockBytes / dam.UnitCost, // half bandwidth: 1/(2t)
		Serial:         true,
	}, nil
}

// ssdSweepThreads are the thread counts of the Figure 1 sweep (dense below
// typical knees so the segmented regression can place them).
var ssdSweepThreads = []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// ssdPerThreadIOs is the per-thread read count of the thread sweep (scaled
// down from the paper's 10 GiB/thread; virtual time is noise-free).
const ssdPerThreadIOs = 256

// CalibrateSSD fits a parallel device: the IO-size sweep yields the affine
// parameters, and the Figure 1 thread sweep (p threads of dependent
// BlockBytes reads, flat-then-linear regression over completion times)
// yields the PDAM's P, the step time, and the saturation throughput ∝PB.
// The DAM gets the §4.1 serial reading: one block of B per step.
func CalibrateSSD(prof ssd.Profile, cfg CalibrationConfig) (Models, error) {
	cfg = cfg.withDefaults()
	span := sweepSpan(prof.Capacity(), cfg)
	affine, affR2, err := sizeSweep(storage.NewStore(ssd.New(prof)), span)
	if err != nil {
		return Models{}, fmt.Errorf("obs: ssd size sweep: %w", err)
	}
	xs := make([]float64, 0, len(ssdSweepThreads))
	ys := make([]float64, 0, len(ssdSweepThreads))
	for _, p := range ssdSweepThreads {
		xs = append(xs, float64(p))
		ys = append(ys, IORound(storage.NewStore(ssd.New(prof)), storage.Read, p, ssdPerThreadIOs,
			cfg.BlockBytes, (span-cfg.BlockBytes)/cfg.BlockBytes, stats.NewRNG(calibSeed+uint64(p)*ThreadSeedStride)))
	}
	knee, sat, r2, err := FitThreads(xs, ys, float64(ssdPerThreadIOs)*float64(cfg.BlockBytes))
	if err != nil {
		return Models{}, fmt.Errorf("obs: ssd thread sweep: %w", err)
	}
	p := int(math.Round(knee))
	if p < 1 {
		p = 1
	}
	step := ys[0] / ssdPerThreadIOs // single-thread seconds per block IO
	pd := core.PDAM{P: p, BlockBytes: float64(cfg.BlockBytes), StepSeconds: step}
	return Models{
		Device:         prof.Name,
		Affine:         affine,
		AffineR2:       affR2,
		DAM:            core.DAM{BlockBytes: float64(cfg.BlockBytes), UnitCost: step},
		PDAM:           pd,
		MQ:             core.MQFromPDAM(pd),
		PDAMR2:         r2,
		SatBytesPerSec: sat,
	}, nil
}

// ExactMQ reads the multi-queue device's exact parameters — it IS its
// model, so nothing needs fitting: an IO of x bytes costs ceil(x/B) block
// slots packed per step. The coarser models get
// the natural reading of the same geometry at their own fidelity, mirroring
// how CalibrateSSD hands the DAM the §4.1 one-block-per-step reading: the
// DAM sees one block per step; the PDAM sees the raw slot count
// P = Queues·PerQueueP (a scalar-P reading has no vocabulary for depth caps
// or cross-queue interference, so it overcommits the device — exactly the
// prediction error E23 measures); the MQ model sees the full queue geometry.
func ExactMQ(dev *mqssd.Storage) Models {
	cfg := dev.Params()
	mq := cfg.Model()
	secs := mq.StepSeconds
	block := mq.BlockBytes
	rawP := mq.RawP()
	return Models{
		Device:         dev.Name(),
		Affine:         core.Affine{Setup: secs, PerByte: secs / (float64(rawP) * block)},
		AffineR2:       1,
		DAM:            core.DAM{BlockBytes: block, UnitCost: secs},
		PDAM:           core.PDAM{P: rawP, BlockBytes: block, StepSeconds: secs},
		MQ:             mq,
		PDAMR2:         1,
		SatBytesPerSec: float64(rawP) * block / secs,
	}
}

// sweepSpan bounds the sweeps' offset range: the configured locality region
// when set (clamped to the device), else the whole device.
func sweepSpan(capacity int64, cfg CalibrationConfig) int64 {
	if cfg.RegionBytes > 0 && cfg.RegionBytes < capacity {
		return cfg.RegionBytes
	}
	return capacity
}

// sizeSweepBlocks are the Table 2 IO sizes in 4 KiB blocks.
var sizeSweepBlocks = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// sizeSweepRounds is reads per size (the paper uses 64; 32 keeps startup
// calibration cheap and virtual time is noise-free enough).
const sizeSweepRounds = 32

// sizeSweep fits the affine s (intercept) and t (slope per byte) to
// SizeSweep's means over sizeSweepBlocks.
func sizeSweep(st *storage.Store, span int64) (core.Affine, float64, error) {
	blocks, secs := SizeSweep(st, sizeSweepBlocks, sizeSweepRounds, span, calibSeed)
	for i := range blocks {
		blocks[i] *= 4096
	}
	line, err := fit.Linear(blocks, secs)
	if err != nil {
		return core.Affine{}, 0, err
	}
	return core.Affine{Setup: line.Intercept, PerByte: line.Slope}, line.R2, nil
}

// SizeSweep runs the Table 2 methodology (§4.2) on a fresh store: for each
// IO size of blocks 4 KiB blocks, up to the first larger than span/4, the
// mean time of rounds random block-aligned reads within span bytes. It
// returns the sizes swept, in blocks, and their mean seconds; a linear fit
// of one against the other yields the affine s and t.
func SizeSweep(st *storage.Store, blocks []int64, rounds int, span int64, seed uint64) (sizes, secs []float64) {
	rng := stats.NewRNG(seed + 77)
	var now sim.Time
	for _, b := range blocks {
		size := b * 4096
		if size > span/4 {
			break
		}
		start := now
		for i := 0; i < rounds; i++ {
			off := rng.Int63n((span-size)/4096) * 4096
			now = st.Meter(now, storage.Read, off, size)
		}
		sizes = append(sizes, float64(b))
		secs = append(secs, (now-start).Seconds()/float64(rounds))
	}
	return sizes, secs
}

// ThreadSeedStride spaces the Figure 1 rounds' seeds: the round at p
// threads draws its offsets from seed + p·ThreadSeedStride.
const ThreadSeedStride = 1000003

// IOThreads starts p sim processes on eng, thread i issuing n dependent
// random IOs of size bytes on st, at size-aligned offsets below slots·size
// drawn from root.Split(i). It returns where the latest finish so far is
// kept: once eng.Run returns, the completion time of the slowest thread.
func IOThreads(eng *sim.Engine, st *storage.Store, op storage.Op, p, n int, size, slots int64, root *stats.RNG) *sim.Time {
	last := new(sim.Time)
	for i := 0; i < p; i++ {
		rng := root.Split(uint64(i))
		eng.Go(func(pr *sim.Proc) {
			for j := 0; j < n; j++ {
				done := st.Meter(pr.Now(), op, rng.Int63n(slots)*size, size)
				pr.SleepUntil(done)
			}
			if pr.Now() > *last {
				*last = pr.Now()
			}
		})
	}
	return last
}

// IORound is one Figure 1 point (§4.1): IOThreads alone on a clock of its
// own. It returns the completion time of the slowest thread in virtual
// seconds.
func IORound(st *storage.Store, op storage.Op, p, n int, size, slots int64, root *stats.RNG) float64 {
	eng := sim.New()
	last := IOThreads(eng, st, op, p, n, size, slots, root)
	eng.Run()
	return last.Seconds()
}

// FitThreads derives Table 1's parameters from a Figure 1 curve: secs[i]
// is the completion time of threads[i] threads each moving volume bytes.
// Flat-then-linear segmented regression (time is constant below P, linear
// above) places the knee P; the saturation throughput ∝PB is what the
// regression line moves at the largest thread count.
func FitThreads(threads, secs []float64, volume float64) (knee, sat, r2 float64, err error) {
	seg, err := fit.FlatThenLinear(threads, secs)
	if err != nil {
		return 0, 0, 0, err
	}
	pMax := threads[len(threads)-1]
	return seg.Knee, pMax * volume / seg.Eval(pMax), seg.R2, nil
}

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
	// Seed drives the sweeps' random offsets.
	Seed uint64
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
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

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
	st := storage.NewStore(hdd.New(prof, cfg.Seed))
	affine, r2, err := sizeSweep(st, sweepSpan(prof.Capacity(), cfg), cfg.Seed)
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
	affine, affR2, err := sizeSweep(storage.NewStore(ssd.New(prof)), sweepSpan(prof.Capacity(), cfg), cfg.Seed)
	if err != nil {
		return Models{}, fmt.Errorf("obs: ssd size sweep: %w", err)
	}
	xs := make([]float64, 0, len(ssdSweepThreads))
	ys := make([]float64, 0, len(ssdSweepThreads))
	for _, p := range ssdSweepThreads {
		xs = append(xs, float64(p))
		ys = append(ys, threadRound(prof, p, cfg))
	}
	seg, err := fit.FlatThenLinear(xs, ys)
	if err != nil {
		return Models{}, fmt.Errorf("obs: ssd thread sweep: %w", err)
	}
	p := int(math.Round(seg.Knee))
	if p < 1 {
		p = 1
	}
	step := ys[0] / ssdPerThreadIOs // single-thread seconds per block IO
	pMax := xs[len(xs)-1]
	volume := float64(ssdPerThreadIOs) * float64(cfg.BlockBytes)
	sat := pMax * volume / seg.Eval(pMax)
	pd := core.PDAM{P: p, BlockBytes: float64(cfg.BlockBytes), StepSeconds: step}
	return Models{
		Device:         prof.Name,
		Affine:         affine,
		AffineR2:       affR2,
		DAM:            core.DAM{BlockBytes: float64(cfg.BlockBytes), UnitCost: step},
		PDAM:           pd,
		MQ:             core.MQFromPDAM(pd),
		PDAMR2:         seg.R2,
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

// sizeSweep runs the Table 2 methodology on a fresh store: for each IO
// size, the mean time of random block-aligned reads within span bytes;
// least squares over (bytes, seconds) yields s (intercept) and t (slope).
func sizeSweep(st *storage.Store, span int64, seed uint64) (core.Affine, float64, error) {
	rng := stats.NewRNG(seed + 77)
	var now sim.Time
	var xs, ys []float64
	for _, blocks := range sizeSweepBlocks {
		size := blocks * 4096
		if size > span/4 {
			break
		}
		start := now
		for i := 0; i < sizeSweepRounds; i++ {
			off := rng.Int63n((span-size)/4096) * 4096
			now = st.Meter(now, storage.Read, off, size)
		}
		xs = append(xs, float64(size))
		ys = append(ys, (now-start).Seconds()/sizeSweepRounds)
	}
	line, err := fit.Linear(xs, ys)
	if err != nil {
		return core.Affine{}, 0, err
	}
	return core.Affine{Setup: line.Intercept, PerByte: line.Slope}, line.R2, nil
}

// threadRound is one Figure 1 point: p sim processes each issuing
// dependent random reads of the calibration block size against a fresh
// device; returns the completion time of the slowest in seconds.
func threadRound(prof ssd.Profile, p int, cfg CalibrationConfig) float64 {
	eng := sim.New()
	st := storage.NewStore(ssd.New(prof))
	root := stats.NewRNG(cfg.Seed + uint64(p)*1000003)
	span := sweepSpan(prof.Capacity(), cfg)
	var last sim.Time
	for i := 0; i < p; i++ {
		rng := root.Split(uint64(i))
		eng.Go(func(pr *sim.Proc) {
			for j := 0; j < ssdPerThreadIOs; j++ {
				off := rng.Int63n((span-cfg.BlockBytes)/cfg.BlockBytes) * cfg.BlockBytes
				done := st.Meter(pr.Now(), storage.Read, off, cfg.BlockBytes)
				pr.SleepUntil(done)
			}
			if pr.Now() > last {
				last = pr.Now()
			}
		})
	}
	eng.Run()
	return last.Seconds()
}

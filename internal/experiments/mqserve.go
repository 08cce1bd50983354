// E23 (multi-queue serving): the Lemma 13 / E20 methodology re-run under
// the multi-queue device model (internal/mqssd), scoring the refinement the
// way E21 scored the PDAM against the DAM.
//
// Three phases:
//
//  1. Calibration sweep over queue count and depth: p = Queues·PerQueueP
//     sim threads of dependent block reads against each geometry, measured
//     against the MQ, PDAM, and DAM closed forms. The PDAM reading of the
//     geometry (raw slot count) overpredicts service by exactly the
//     depth/interference factor; the MQ closed form tracks the measurement.
//
//  2. Serving residuals: a kvserve B-tree on the multi-queue profile with
//     the span tracer and the four-model accountant (obs.ExactMQ), driven
//     by closed-loop TCP clients through one global pool of raw-P read
//     slots — the scheduler a PDAM believer would build, which overcommits
//     the device. The live read-residual histograms must order
//     mq < pdam < dam (acceptance: mq beats pdam, both beat dam ≥ 2×).
//
//  3. Scheduler comparison + write isolation: gets/step under the DAM
//     (one slot), PDAM-global (one pool of raw P slots), topology-global
//     (one pool of Queues × PerQueue slots) and queue-aware (the same slots
//     as per-queue lanes, via the device's storage.Topology) schedulers;
//     then reads against concurrent group-committing writers with and
//     without the dedicated write queue.

package experiments

import (
	"math"
	"slices"

	"iomodels/internal/core"
	"iomodels/internal/mqssd"
	"iomodels/internal/node"
	"iomodels/internal/obs"
	"iomodels/internal/server"
	"iomodels/internal/sim"
	"iomodels/internal/stats"
	"iomodels/internal/storage"
	"iomodels/internal/workload"
)

// MQServingConfig parameterizes E23.
type MQServingConfig struct {
	ServeBase
	Device mqssd.Config // the serving device profile

	OpsPerClient int
	Clients      []int // k values for the scheduler comparison

	SweepQueues []int // calibration sweep: queue counts
	SweepDepths []int // calibration sweep: per-queue depths
	SweepIOs    int   // dependent reads per thread in the sweep

	Writers         int // concurrent writer connections (isolation phase)
	WritesPerWriter int
}

// DefaultMQServingConfig is laptop-scale but IO-bound. The device profile
// sharpens the default geometry to an 8× PDAM overcommit (4 queues × 16
// raw slots = raw P 64, but depth 4 and interference cap the effective
// parallelism at 8): the wider the gap between the raw and realizable slot
// count, the starker the single-scalar models' misprediction.
func DefaultMQServingConfig() MQServingConfig {
	device := mqssd.DefaultConfig()
	device.PerQueueP = 16
	return MQServingConfig{
		ServeBase: ServeBase{
			Items:      60_000,
			NodeBlocks: 1,
			CacheBytes: 512 << 10,
			Spec:       workload.DefaultSpec(),
			Seed:       23,
		},
		Device:          device,
		OpsPerClient:    60,
		Clients:         []int{1, 8, 32},
		SweepQueues:     []int{1, 2, 4, 8},
		SweepDepths:     []int{2, 4, 8},
		SweepIOs:        128,
		Writers:         8,
		WritesPerWriter: 40,
	}
}

// MQCalibRow is one (queue count, depth) point of the calibration sweep:
// the measured completion time of raw-P threads of dependent reads, and
// each model's relative prediction error on it.
type MQCalibRow struct {
	Queues, Depth int
	RawP, EffP    int     // PDAM reading vs realizable parallelism
	MeasuredSteps float64 // slowest thread's completion, in device steps
	MQErr         float64 // |predicted−measured|/measured
	PDAMErr       float64
	DAMErr        float64
}

// MQCalibration runs the sweep. Each geometry is probed at its own raw slot
// count — the offered load a PDAM-informed client would choose.
func MQCalibration(cfg MQServingConfig) []MQCalibRow {
	var rows []MQCalibRow
	for _, q := range cfg.SweepQueues {
		for _, depth := range cfg.SweepDepths {
			dcfg := cfg.Device
			dcfg.Queues = q
			dcfg.QueueDepth = depth
			dcfg.WriteQueue = false
			model := dcfg.Model()
			raw := model.RawP()
			meas := mqThreadRound(dcfg, raw, cfg.SweepIOs, cfg.Seed)
			ios := float64(cfg.SweepIOs)
			// The PDAM reading of the geometry: raw slot count, no depth
			// or interference vocabulary.
			pd := core.PDAM{P: raw, BlockBytes: model.BlockBytes, StepSeconds: model.StepSeconds}
			rows = append(rows, MQCalibRow{
				Queues: q, Depth: depth,
				RawP: raw, EffP: model.EffectiveParallelism(),
				MeasuredSteps: meas / model.StepSeconds,
				MQErr:         relErr(model.MQReadSeconds(raw, ios), meas),
				PDAMErr:       relErr(pd.PDAMReadSeconds(raw, ios), meas),
				DAMErr:        relErr(pd.DAMReadSeconds(raw, ios), meas),
			})
		}
	}
	return rows
}

func relErr(pred, meas float64) float64 {
	if meas == 0 {
		return 0
	}
	return math.Abs(pred-meas) / meas
}

// mqThreadRound is one Figure 1 point on a fresh multi-queue device: p sim
// processes each issuing ios dependent random block reads; returns the
// completion time of the slowest in seconds.
func mqThreadRound(dcfg mqssd.Config, p, ios int, seed uint64) float64 {
	dev := mqssd.New(dcfg)
	block := dev.Config().BlockBytes
	return obs.IORound(storage.NewStore(dev.Storage(1<<31)), storage.Read, p, ios, block, (1<<31)/block,
		stats.NewRNG(seed+uint64(p)*obs.ThreadSeedStride))
}

// startMQServing boots a B-tree server on a fresh multi-queue device.
// lanes/batch 0 selects the queue-aware defaults (the device's
// storage.Topology); lanes 1 with an explicit batch forces the classic
// global scheduler. A tracer without models is calibrated by the node from
// the device's exact parameters.
func startMQServing(cfg MQServingConfig, lanes, batch int, tracer *obs.Tracer) (*node.Node, error) {
	maxK := slices.Max(append([]int{cfg.Writers + len(cfg.Clients)}, cfg.Clients...))
	return cfg.start(cfg.Device.BlockBytes, false, node.Spec{
		Device: mqssd.New(cfg.Device).Storage(1 << 31),
		Server: server.Config{ReadLanes: lanes, BatchIOs: batch, ReadQueue: 4 * maxK, Tracer: tracer},
	})
}

// MQServing runs the scheduler comparison: closed-loop TCP gets per device
// step under the DAM, PDAM-global, topology-global and queue-aware
// schedulers. The last two hold the same number of reads in flight, so the
// difference between their rows is what partitioning the slots by key costs;
// the difference to the PDAM-global row is what the depth costs.
func MQServing(cfg MQServingConfig) ([]ServingRow, error) {
	topo := mqssd.New(cfg.Device).Storage(1).Topology()
	return cfg.schedulerRows(cfg.Device.StepTime, cfg.Clients, cfg.OpsPerClient,
		func(lanes, batch int) (*node.Node, error) { return startMQServing(cfg, lanes, batch, nil) },
		schedulerMode{"dam", 1, 1},                                 // one IO at a time: the DAM's implicit discipline
		schedulerMode{"pdam", 1, cfg.Device.Model().RawP()},        // one global pool of the raw slot count
		schedulerMode{"mq-global", 1, topo.Queues * topo.PerQueue}, // one global pool of the topology's slots
		schedulerMode{"mq-lanes", 0, 0})                            // the same slots as per-queue lanes
}

// MQResiduals runs the accountant phase: the PDAM-global scheduler (the
// overcommitting design a PDAM believer would run on this device) under the
// maximum client count, every span traced, four models predicting each op.
// Returns the tracer summary whose read-residual table E23 asserts on.
func MQResiduals(cfg MQServingConfig) (obs.Summary, error) {
	raw := cfg.Device.Model().RawP()
	// The node calibrates the tracer's four models from the device's exact
	// parameters (obs.ExactMQ: no fitting).
	tracer := obs.NewTracer(obs.Config{SampleEvery: 1})
	sb, err := startMQServing(cfg, 1, raw, tracer)
	if err != nil {
		return obs.Summary{}, err
	}
	defer sb.Close()
	// Twice the slot count in closed-loop clients, so every slot is always
	// held and raw-P reads are in flight throughout.
	k := 2 * raw
	if _, err := cfg.readRound(sb, cfg.Device.StepTime, "residuals", k, cfg.OpsPerClient); err != nil {
		return obs.Summary{}, err
	}
	return tracer.Summary(), nil
}

// MQIsolationRow is one write-isolation measurement: dependent-read
// throughput while a sequential write stream (a WAL tail) hammers the
// device, with or without the dedicated write queue.
type MQIsolationRow struct {
	WriteQueue   bool
	Readers      int
	Steps        float64 // slowest reader's completion, in device steps
	ReadsPerStep float64
	WriteBlocks  int64 // write blocks issued while the readers ran
}

// MQWriteIsolation measures the dedicated write queue at the device level,
// deterministically: EffectiveParallelism reader procs each run SweepIOs
// dependent random block reads while one writer proc streams sequential
// write bursts — the shape of WAL appends, which is exactly the traffic the
// serving path's group commit sends here, since mqssd routes writes by op.
// With the write queue the bursts never occupy read-queue slots; without it
// they land on the read queues and steal read service.
func MQWriteIsolation(cfg MQServingConfig) []MQIsolationRow {
	readers := cfg.Device.Model().EffectiveParallelism()
	var rows []MQIsolationRow
	for _, wq := range []bool{true, false} {
		dcfg := cfg.Device
		dcfg.WriteQueue = wq
		rows = append(rows, mqIsolationRound(dcfg, readers, cfg.SweepIOs, cfg.Seed))
	}
	return rows
}

// mqIsolationRound is one write-isolation point on a fresh device.
func mqIsolationRound(dcfg mqssd.Config, readers, ios int, seed uint64) MQIsolationRow {
	eng := sim.New()
	dev := mqssd.New(dcfg)
	st := storage.NewStore(dev.Storage(1 << 31))
	block := dev.Config().BlockBytes
	lastReader := obs.IOThreads(eng, st, storage.Read, readers, ios, block, (1<<30)/block, stats.NewRNG(seed+99991))
	// The write stream: dependent 16-block sequential bursts, with enough
	// volume to outlast the readers. Sequential addresses rotate across the
	// read queues when no write queue isolates them.
	const burstBlocks = 16
	totalBursts := readers * ios / 4
	var writeBlocks int64
	eng.Go(func(pr *sim.Proc) {
		off := int64(1 << 30) // write region above the readers'
		for b := 0; b < totalBursts; b++ {
			if *lastReader == 0 || pr.Now() <= *lastReader {
				writeBlocks += burstBlocks
			}
			done := st.Meter(pr.Now(), storage.Write, off, burstBlocks*block)
			off += burstBlocks * block
			pr.SleepUntil(done)
		}
	})
	eng.Run()
	steps := float64(*lastReader) / float64(dcfg.StepTime)
	row := MQIsolationRow{
		WriteQueue: dcfg.WriteQueue, Readers: readers,
		Steps: steps, WriteBlocks: writeBlocks,
	}
	if steps > 0 {
		row.ReadsPerStep = float64(readers*ios) / steps
	}
	return row
}

// RenderMQCalibration formats the sweep table.
func RenderMQCalibration(rows []MQCalibRow) string {
	return renderRows("E23 (calibration): raw-P dependent-read threads per queue geometry — closed-form prediction error", rows, []column[MQCalibRow]{
		{"queues", func(r MQCalibRow) string { return intStr(r.Queues) }},
		{"depth", func(r MQCalibRow) string { return intStr(r.Depth) }},
		{"raw P", func(r MQCalibRow) string { return intStr(r.RawP) }},
		{"eff P", func(r MQCalibRow) string { return intStr(r.EffP) }},
		{"steps", func(r MQCalibRow) string { return fmt0(r.MeasuredSteps) }},
		{"mq err%", func(r MQCalibRow) string { return f2(100 * r.MQErr) }},
		{"pdam err%", func(r MQCalibRow) string { return f2(100 * r.PDAMErr) }},
		{"dam err%", func(r MQCalibRow) string { return f2(100 * r.DAMErr) }},
	})
}

// RenderMQServing formats the scheduler comparison.
func RenderMQServing(rows []ServingRow) string {
	return renderSchedulerRows("E23 (serving): gets per device step — DAM vs PDAM-global vs topology-global vs queue-aware lanes on the multi-queue device", rows)
}

// RenderMQIsolation formats the write-isolation phase.
func RenderMQIsolation(rows []MQIsolationRow) string {
	return renderRows("E23 (write isolation): dependent-read throughput under a sequential write stream — dedicated write queue on/off", rows, []column[MQIsolationRow]{
		{"write queue", func(r MQIsolationRow) string { return map[bool]string{true: "on", false: "off"}[r.WriteQueue] }},
		{"readers", func(r MQIsolationRow) string { return intStr(r.Readers) }},
		{"steps", func(r MQIsolationRow) string { return fmt0(r.Steps) }},
		{"reads/step", func(r MQIsolationRow) string { return f3(r.ReadsPerStep) }},
		{"write blocks", func(r MQIsolationRow) string { return intStr(int(r.WriteBlocks)) }},
	})
}

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
//     by closed-loop TCP clients through a PDAM-sized global read batch —
//     the scheduler a PDAM believer would build, which overcommits the
//     device. The live read-residual histograms must order
//     mq < pdam < dam (acceptance: mq beats pdam, both beat dam ≥ 2×).
//
//  3. Scheduler comparison + write isolation: gets/step under the DAM
//     (batch 1), PDAM-global (one raw-P batch), and queue-aware (per-queue
//     lanes via the device's storage.Topology) schedulers; then reads
//     against concurrent group-committing writers with and without the
//     dedicated write queue.

package experiments

import (
	"math"
	"slices"
	"time"

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
	Items      int64
	Device     mqssd.Config // the serving device profile
	NodeBlocks int          // B-tree node size in device blocks
	CacheBytes int64        // engine budget (keep << data so gets hit disk)

	OpsPerClient int
	Clients      []int         // k values for the scheduler comparison
	BatchGrace   time.Duration // real-time wait for partial batches

	SweepQueues []int // calibration sweep: queue counts
	SweepDepths []int // calibration sweep: per-queue depths
	SweepIOs    int   // dependent reads per thread in the sweep

	Writers         int // concurrent writer connections (isolation phase)
	WritesPerWriter int

	Spec workload.KeySpec
	Seed uint64
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
		Items:           60_000,
		Device:          device,
		NodeBlocks:      1,
		CacheBytes:      512 << 10,
		OpsPerClient:    60,
		Clients:         []int{1, 8, 32},
		BatchGrace:      time.Millisecond,
		SweepQueues:     []int{1, 2, 4, 8},
		SweepDepths:     []int{2, 4, 8},
		SweepIOs:        128,
		Writers:         8,
		WritesPerWriter: 40,
		Spec:            workload.DefaultSpec(),
		Seed:            23,
	}
}

// legacy synthesizes the E20 config the shared read-round helper consumes.
func (cfg MQServingConfig) legacy() ServingConfig {
	return ServingConfig{
		Items:        cfg.Items,
		StepTime:     cfg.Device.StepTime,
		OpsPerClient: cfg.OpsPerClient,
		Spec:         cfg.Spec,
		Seed:         cfg.Seed,
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
	eng := sim.New()
	dev := mqssd.New(dcfg)
	st := storage.NewStore(dev.Storage(1 << 31))
	block := dev.Config().BlockBytes
	span := int64(1<<31) / block
	root := stats.NewRNG(seed + uint64(p)*1000003)
	var last sim.Time
	for i := 0; i < p; i++ {
		rng := root.Split(uint64(i))
		eng.Go(func(pr *sim.Proc) {
			for j := 0; j < ios; j++ {
				off := rng.Int63n(span) * block
				done := st.Meter(pr.Now(), storage.Read, off, block)
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

// startMQServing boots a B-tree server on a fresh multi-queue device.
// lanes/batch 0 selects the queue-aware defaults (the device's
// storage.Topology); lanes 1 with an explicit batch forces the classic
// global scheduler. A tracer without models is calibrated by the node from
// the device's exact parameters.
func startMQServing(cfg MQServingConfig, lanes, batch int, tracer *obs.Tracer) (*node.Node, error) {
	maxK := slices.Max(append([]int{cfg.Writers + len(cfg.Clients)}, cfg.Clients...))
	return node.Start(node.Spec{
		Device:     mqssd.New(cfg.Device).Storage(1 << 31),
		CacheBytes: cfg.CacheBytes,
		Tree:       "btree",
		NodeBytes:  cfg.NodeBlocks * int(cfg.Device.BlockBytes),
		Keys:       cfg.Spec,
		Items:      cfg.Items,
		Server: server.Config{
			Addr:       "127.0.0.1:0",
			ReadLanes:  lanes,
			BatchIOs:   batch,
			BatchGrace: cfg.BatchGrace,
			ReadQueue:  4 * maxK,
			Tracer:     tracer,
		},
	})
}

// MQServing runs the scheduler comparison: closed-loop TCP gets per device
// step under the DAM, PDAM-global, and queue-aware schedulers.
func MQServing(cfg MQServingConfig) ([]ServingRow, error) {
	raw := cfg.Device.Model().RawP()
	var rows []ServingRow
	for _, mode := range []struct {
		name         string
		lanes, batch int
	}{
		{"dam", 1, 1},      // one IO at a time: the DAM's implicit discipline
		{"pdam", 1, raw},   // one global batch of the raw slot count
		{"mq-lanes", 0, 0}, // per-queue lanes sized by the device topology
	} {
		sb, err := startMQServing(cfg, mode.lanes, mode.batch, nil)
		if err != nil {
			return nil, err
		}
		for _, k := range cfg.Clients {
			row, err := servingReadRound(sb, cfg.legacy(), mode.name, k)
			if err != nil {
				sb.Close()
				return nil, err
			}
			rows = append(rows, row)
		}
		sb.Close()
	}
	return rows, nil
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
	// Twice the batch size in closed-loop clients, so a full batch is always
	// queued behind the running one and every launch is raw-P wide.
	k := 2 * raw
	if _, err := servingReadRound(sb, cfg.legacy(), "residuals", k); err != nil {
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
	span := int64(1<<30) / block
	root := stats.NewRNG(seed + 99991)
	var lastReader sim.Time
	for i := 0; i < readers; i++ {
		rng := root.Split(uint64(i))
		eng.Go(func(pr *sim.Proc) {
			for j := 0; j < ios; j++ {
				off := rng.Int63n(span) * block
				done := st.Meter(pr.Now(), storage.Read, off, block)
				pr.SleepUntil(done)
			}
			if pr.Now() > lastReader {
				lastReader = pr.Now()
			}
		})
	}
	// The write stream: dependent 16-block sequential bursts, with enough
	// volume to outlast the readers. Sequential addresses rotate across the
	// read queues when no write queue isolates them.
	const burstBlocks = 16
	totalBursts := readers * ios / 4
	var writeBlocks int64
	eng.Go(func(pr *sim.Proc) {
		off := int64(1 << 30) // write region above the readers'
		for b := 0; b < totalBursts; b++ {
			if lastReader == 0 || pr.Now() <= lastReader {
				writeBlocks += burstBlocks
			}
			done := st.Meter(pr.Now(), storage.Write, off, burstBlocks*block)
			off += burstBlocks * block
			pr.SleepUntil(done)
		}
	})
	eng.Run()
	steps := float64(lastReader) / float64(dcfg.StepTime)
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
	headers := []string{"queues", "depth", "raw P", "eff P", "steps", "mq err%", "pdam err%", "dam err%"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			intStr(r.Queues), intStr(r.Depth), intStr(r.RawP), intStr(r.EffP),
			fmt0(r.MeasuredSteps), f2(100 * r.MQErr), f2(100 * r.PDAMErr), f2(100 * r.DAMErr),
		})
	}
	return RenderTable("E23 (calibration): raw-P dependent-read threads per queue geometry — closed-form prediction error",
		headers, cells)
}

// RenderMQServing formats the scheduler comparison.
func RenderMQServing(rows []ServingRow) string {
	headers := []string{"scheduler", "clients k", "steps", "gets/step", "hit%", "p50 µs", "p99 µs"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Mode, intStr(r.Clients), fmt0(r.Steps), f3(r.Throughput),
			f2(r.HitRatio * 100), fmt0(r.P50Us), fmt0(r.P99Us),
		})
	}
	return RenderTable("E23 (serving): gets per device step — DAM vs PDAM-global vs queue-aware lanes on the multi-queue device",
		headers, cells)
}

// RenderMQIsolation formats the write-isolation phase.
func RenderMQIsolation(rows []MQIsolationRow) string {
	headers := []string{"write queue", "readers", "steps", "reads/step", "write blocks"}
	var cells [][]string
	for _, r := range rows {
		wq := "off"
		if r.WriteQueue {
			wq = "on"
		}
		cells = append(cells, []string{
			wq, intStr(r.Readers), fmt0(r.Steps), f3(r.ReadsPerStep), intStr(int(r.WriteBlocks)),
		})
	}
	return RenderTable("E23 (write isolation): dependent-read throughput under a sequential write stream — dedicated write queue on/off",
		headers, cells)
}

// E1 (Figure 1), E2 (Table 1), E7 (§4.1 prediction-error claim): validate
// the PDAM against the simulated SSDs.
//
// Methodology follows §4.1: p = 1, 2, 4, ..., 64 threads each read a fixed
// volume of data as 64 KiB reads at random block-aligned offsets, with one
// outstanding IO per thread; completion time of the round is recorded. The
// PDAM parallelism P and the saturation throughput ∝PB are then derived by
// flat-then-linear segmented regression, exactly as in the paper. (The
// paper reads 10 GiB per thread; the default here is scaled down — virtual
// time is noise-free, so the scale only affects host run time.)

package experiments

import (
	"fmt"

	"iomodels/internal/core"
	"iomodels/internal/fit"
	"iomodels/internal/sim"
	"iomodels/internal/ssd"
	"iomodels/internal/stats"
	"iomodels/internal/storage"
)

// PDAMConfig parameterizes the Figure 1 experiment.
type PDAMConfig struct {
	IOBytes      int64 // read size (paper: 64 KiB)
	PerThreadIOs int   // reads per thread (paper: 163,840 = 10 GiB)
	Threads      []int // thread counts (paper: 1..64, powers of two)
	Seed         uint64
}

// DefaultPDAMConfig returns the paper's shape at ~1/80 volume.
func DefaultPDAMConfig() PDAMConfig {
	return PDAMConfig{
		IOBytes:      64 << 10,
		PerThreadIOs: 2048, // 128 MiB per thread
		Threads:      []int{1, 2, 4, 8, 16, 32, 64},
		Seed:         1,
	}
}

// Figure1Point is one (threads, completion seconds) measurement.
type Figure1Point struct {
	Threads int
	Seconds float64
}

// Figure1Series is the Figure 1 curve for one device.
type Figure1Series struct {
	Device string
	Points []Figure1Point
}

// Figure1 runs the thread-scaling read experiment on every Table 1 SSD.
func Figure1(cfg PDAMConfig) []Figure1Series {
	var out []Figure1Series
	for _, prof := range ssd.Profiles() {
		out = append(out, threadSeries(prof, cfg, storage.Read, 1000003))
	}
	return out
}

// threadSeries is one device's Figure 1 curve, for reads or (E17) writes: at
// each thread count p a fresh device serves p threads of cfg.PerThreadIOs
// dependent random IOs, and the point is the slowest thread's completion
// time. seedStride keeps the two directions' offset streams apart.
func threadSeries(prof ssd.Profile, cfg PDAMConfig, op storage.Op, seedStride uint64) Figure1Series {
	s := Figure1Series{Device: prof.Name}
	slots := (prof.Capacity() - cfg.IOBytes) / cfg.IOBytes
	for _, p := range cfg.Threads {
		secs := ioRound(storage.NewStore(ssd.New(prof)), op, p, cfg.PerThreadIOs, cfg.IOBytes, slots,
			stats.NewRNG(cfg.Seed+uint64(p)*seedStride))
		s.Points = append(s.Points, Figure1Point{Threads: p, Seconds: secs})
	}
	return s
}

// ioThreads starts p sim processes on eng, thread i issuing n dependent
// random IOs of size bytes on st, at size-aligned offsets below slots·size
// drawn from root.Split(i). It returns where the latest finish so far is
// kept: once eng.Run returns, the completion time of the slowest thread.
func ioThreads(eng *sim.Engine, st *storage.Store, op storage.Op, p, n int, size, slots int64, root *stats.RNG) *sim.Time {
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

// ioRound runs ioThreads alone on a clock of its own and returns the
// completion time of the slowest thread in virtual seconds.
func ioRound(st *storage.Store, op storage.Op, p, n int, size, slots int64, root *stats.RNG) float64 {
	eng := sim.New()
	last := ioThreads(eng, st, op, p, n, size, slots, root)
	eng.Run()
	return last.Seconds()
}

// Table1Row is one derived row of Table 1.
type Table1Row struct {
	Device  string
	P       float64 // derived parallelism (segmented-regression knee)
	SatMBps float64 // saturation throughput ∝ PB, MB/s
	R2      float64
}

// Table1 derives P and ∝PB from Figure 1 series by flat-then-linear
// segmented regression (completion time is constant below P, linear above).
func Table1(series []Figure1Series, cfg PDAMConfig) ([]Table1Row, error) {
	var rows []Table1Row
	for _, s := range series {
		var xs, ys []float64
		for _, pt := range s.Points {
			xs = append(xs, float64(pt.Threads))
			ys = append(ys, pt.Seconds)
		}
		seg, err := fit.FlatThenLinear(xs, ys)
		if err != nil {
			return nil, err
		}
		// Saturation throughput: at large p the device moves
		// p·volume / time(p) bytes/s; use the regression line at max p.
		pMax := xs[len(xs)-1]
		volume := float64(cfg.PerThreadIOs) * float64(cfg.IOBytes)
		sat := pMax * volume / seg.Eval(pMax)
		rows = append(rows, Table1Row{
			Device:  s.Device,
			P:       seg.Knee,
			SatMBps: sat / 1e6,
			R2:      seg.R2,
		})
	}
	return rows, nil
}

// RenderTable1 formats Table 1 as in the paper.
func RenderTable1(rows []Table1Row) string {
	return renderRows("Table 1: derived PDAM parameters (cf. paper: P 2.9-5.5, ∝PB 260-2500 MB/s, R² ≥ 0.986)", rows, []column[Table1Row]{
		{"Device", func(r Table1Row) string { return r.Device }},
		{"P", func(r Table1Row) string { return f2(r.P) }},
		{"∝PB (MB/s)", func(r Table1Row) string { return fmt0(r.SatMBps) }},
		{"R²", func(r Table1Row) string { return f4(r.R2) }},
	})
}

// RenderFigure1 formats the Figure 1 series, one row per device and one
// column per thread count.
func RenderFigure1(series []Figure1Series, cfg PDAMConfig) string {
	cols := []column[Figure1Series]{{"Device", func(s Figure1Series) string { return s.Device }}}
	for i, pt := range series[0].Points {
		cols = append(cols, column[Figure1Series]{fmt.Sprintf("p=%d", pt.Threads), func(s Figure1Series) string { return f2(s.Points[i].Seconds) }})
	}
	title := fmt.Sprintf("Figure 1: seconds (virtual) for p threads × %d random %s reads each", cfg.PerThreadIOs, humanBytes(int(cfg.IOBytes)))
	return renderRows(title, series, cols)
}

// PredictionRow quantifies E7: how well the PDAM (knee model) and the DAM
// (serial model) predict the measured Figure 1 times.
type PredictionRow struct {
	Device        string
	PDAMMaxRelErr float64 // paper: never more than 14%
	DAMMaxOverEst float64 // paper: ~P at large thread counts
	DerivedP      float64
}

// PDAMPrediction computes E7 from measured series and derived parameters.
// The PDAM prediction uses the fitted device model: below the derived P the
// run is latency-bound at the single-thread time t1; above it the device is
// bandwidth-bound at the derived saturation throughput, so time =
// max(t1, p·volume/∝PB). The DAM, which serves one IO at a time, predicts
// time = t1·p from the same calibration.
func PDAMPrediction(series []Figure1Series, table1 []Table1Row, cfg PDAMConfig) []PredictionRow {
	volume := float64(cfg.PerThreadIOs) * float64(cfg.IOBytes)
	var out []PredictionRow
	for i, s := range series {
		t1 := s.Points[0].Seconds
		p := table1[i].P
		sat := table1[i].SatMBps * 1e6
		var measured, pdam, dam []float64
		for _, pt := range s.Points {
			measured = append(measured, pt.Seconds)
			pred := float64(pt.Threads) * volume / sat
			if pred < t1 {
				pred = t1
			}
			pdam = append(pdam, pred)
			dam = append(dam, t1*float64(pt.Threads))
		}
		worstOver := 0.0
		for j := range measured {
			if r := dam[j] / measured[j]; r > worstOver {
				worstOver = r
			}
		}
		out = append(out, PredictionRow{
			Device:        s.Device,
			PDAMMaxRelErr: core.MaxRelError(measured, pdam),
			DAMMaxOverEst: worstOver,
			DerivedP:      p,
		})
	}
	return out
}

// RenderPrediction formats E7.
func RenderPrediction(rows []PredictionRow) string {
	return renderRows("E7: prediction error on Figure 1 (paper: PDAM ≤14%; DAM overestimates by ≈P)", rows, []column[PredictionRow]{
		{"Device", func(r PredictionRow) string { return r.Device }},
		{"PDAM max err (%)", func(r PredictionRow) string { return f2(r.PDAMMaxRelErr * 100) }},
		{"DAM max overestimate (x)", func(r PredictionRow) string { return f2(r.DAMMaxOverEst) }},
		{"derived P", func(r PredictionRow) string { return f2(r.DerivedP) }},
	})
}

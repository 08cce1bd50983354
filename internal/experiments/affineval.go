// E3 (Table 2) and E8 (§4.2 prediction-error claim): validate the affine
// model against the simulated HDDs.
//
// Methodology follows §4.2: for each IO size from one 4 KiB block up to
// 16 MiB, issue 64 reads at random block-aligned offsets across the full
// device; linear regression of mean IO time versus size yields the setup
// cost s (intercept), the bandwidth cost t (slope, per 4 KiB), α = t/s, and
// R².

package experiments

import (
	"fmt"
	"math"

	"iomodels/internal/fit"
	"iomodels/internal/hdd"
	"iomodels/internal/sim"
	"iomodels/internal/stats"
	"iomodels/internal/storage"
)

// AffineConfig parameterizes the Table 2 experiment.
type AffineConfig struct {
	Blocks []int64 // IO sizes in 4 KiB blocks (paper: 1 block .. 16 MiB)
	Rounds int     // reads per size (paper: 64)
	Seed   uint64
}

// DefaultAffineConfig matches the paper's sweep.
func DefaultAffineConfig() AffineConfig {
	return AffineConfig{
		Blocks: []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096},
		Rounds: 64,
		Seed:   2,
	}
}

// Table2Row is one derived row of Table 2, plus the ground truth the
// simulator was configured with so the recovery can be judged.
type Table2Row struct {
	Device  string
	Year    int
	S       float64 // fitted setup cost, seconds
	TPer4K  float64 // fitted transfer cost, seconds per 4 KiB
	Alpha   float64 // t/s
	R2      float64
	TrueS   float64
	TrueT4K float64

	// The per-size means, kept for E8.
	sizes []float64 // blocks
	means []float64 // seconds
}

// Table2 runs the IO-size sweep on every Table 2 drive and fits the affine
// parameters.
func Table2(cfg AffineConfig) ([]Table2Row, error) {
	var rows []Table2Row
	for _, prof := range hdd.Profiles() {
		st := storage.NewStore(hdd.New(prof, cfg.Seed))
		rng := stats.NewRNG(cfg.Seed + 77)
		var now sim.Time
		var xs, ys []float64
		for _, blocks := range cfg.Blocks {
			size := blocks * 4096
			start := now
			for i := 0; i < cfg.Rounds; i++ {
				off := rng.Int63n((prof.Capacity()-size)/4096) * 4096
				now = st.Meter(now, storage.Read, off, size)
			}
			xs = append(xs, float64(blocks))
			ys = append(ys, (now-start).Seconds()/float64(cfg.Rounds))
		}
		line, err := fit.Linear(xs, ys)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Device:  prof.Name,
			Year:    prof.Year,
			S:       line.Intercept,
			TPer4K:  line.Slope,
			Alpha:   line.Slope / line.Intercept,
			R2:      line.R2,
			TrueS:   prof.ExpectedSetup().Seconds(),
			TrueT4K: prof.ExpectedTransferPer4K(),
			sizes:   xs,
			means:   ys,
		})
	}
	return rows, nil
}

// RenderTable2 formats Table 2 as in the paper.
func RenderTable2(rows []Table2Row) string {
	return renderRows("Table 2: derived affine parameters (cf. paper: s 0.012-0.018, t 2.1e-5..4.1e-5, R² ≥ 0.9972)", rows, []column[Table2Row]{
		{"Disk", Table2Row.label},
		{"s (s)", func(r Table2Row) string { return f3(r.S) }},
		{"t (s/4K)", func(r Table2Row) string { return f6(r.TPer4K) }},
		{"α", func(r Table2Row) string { return f4(r.Alpha) }},
		{"R²", func(r Table2Row) string { return f4(r.R2) }},
		{"true s", func(r Table2Row) string { return f3(r.TrueS) }},
		{"true t", func(r Table2Row) string { return f6(r.TrueT4K) }},
	})
}

// label names a drive the way Table 2 does.
func (r Table2Row) label() string { return fmt.Sprintf("%s (%d)", r.Device, r.Year) }

// AffinePredictionRow quantifies E8 for one drive: the affine fit's maximum
// relative error across IO sizes (paper: within 25%), and the worst-case
// ratio between the DAM estimate (unit-cost blocks at the half-bandwidth
// point, Lemma 1) and the measurement (paper: up to 2x).
type AffinePredictionRow struct {
	Device       string
	AffineMaxErr float64
	DAMMaxRatio  float64
}

// AffinePrediction computes E8 from the Table 2 sweep.
func AffinePrediction(rows []Table2Row) []AffinePredictionRow {
	var out []AffinePredictionRow
	for _, r := range rows {
		var affineErr, damRatio float64
		hbBlocks := r.S / r.TPer4K // half-bandwidth point in 4 KiB blocks
		for i, b := range r.sizes {
			measured := r.means[i]
			affine := r.S + r.TPer4K*b
			if e := math.Abs(affine-measured) / measured; e > affineErr {
				affineErr = e
			}
			// Lemma 1 DAM: blocks of hbBlocks, each costing 2s.
			dam := math.Ceil(b/hbBlocks) * 2 * r.S
			ratio := dam / measured
			if ratio < 1 {
				ratio = 1 / ratio
			}
			if ratio > damRatio {
				damRatio = ratio
			}
		}
		out = append(out, AffinePredictionRow{Device: r.Device, AffineMaxErr: affineErr, DAMMaxRatio: damRatio})
	}
	return out
}

// RenderAffinePrediction formats E8.
func RenderAffinePrediction(rows []AffinePredictionRow) string {
	return renderRows("E8: prediction error on the IO-size sweep (paper: affine ≤25%; DAM off by up to 2x)", rows, []column[AffinePredictionRow]{
		{"Disk", func(r AffinePredictionRow) string { return r.Device }},
		{"affine max err (%)", func(r AffinePredictionRow) string { return f2(r.AffineMaxErr * 100) }},
		{"DAM max ratio (x)", func(r AffinePredictionRow) string { return f2(r.DAMMaxRatio) }},
	})
}

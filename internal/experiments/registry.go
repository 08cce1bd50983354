// The experiment registry: one row per harness run, at the scale
// EXPERIMENTS.md records or at the reduced scale tier-1 renders. A row is
// where a harness's Default*Config is cut to a scale and its tables are
// joined. cmd/repro lists, runs and checks the rows; every deterministic
// row's output sits in EXPERIMENTS.md as a generated block (and at the
// reduced scale in testdata/small.md), and Check fails when a block and its
// render differ.

package experiments

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"iomodels/internal/obs"
	"iomodels/internal/ssd"
)

// Row is one experiment: a harness run and the tables it renders.
type Row struct {
	ID     string   // what `repro ID` and a block marker name
	Name   string   // a short description, for the listing
	Tables []string // the EXPERIMENTS.md / DESIGN.md §4 IDs it renders, ID first
	// Deterministic rows print virtual time only, so their output is
	// byte-identical run to run and EXPERIMENTS.md holds it as a generated
	// block. The others carry wall-clock columns, which say so in their
	// header, and their tables stay hand-recorded.
	Deterministic bool
	Run           func(small bool) (string, error)
}

// scale picks the full-scale value or, when small, the reduced one.
func scale[T any](small bool, full, reduced T) T {
	if small {
		return reduced
	}
	return full
}

// join stacks rendered tables, a blank line apart.
func join(tables ...string) string { return strings.Join(tables, "\n") }

// pure adapts a harness that cannot fail.
func pure(run func(small bool) string) func(bool) (string, error) {
	return func(small bool) (string, error) { return run(small), nil }
}

// Registry lists every experiment.
var Registry = []Row{
	{"E1", "Figure 1", []string{"E1", "E2", "E7"}, true, func(small bool) (string, error) {
		cfg := DefaultPDAMConfig()
		cfg.PerThreadIOs = scale(small, 8192, 100)
		series := Figure1(cfg)
		rows, err := Table1(series, cfg)
		if err != nil {
			return "", err
		}
		return join(RenderFigure1(series, cfg), RenderTable1(rows), RenderPrediction(PDAMPrediction(series, rows, cfg))), nil
	}},
	{"E3", "Table 2", []string{"E3", "E8"}, true, func(small bool) (string, error) {
		cfg := DefaultAffineConfig()
		cfg.Rounds = scale(small, cfg.Rounds, 16)
		rows, err := Table2(cfg)
		if err != nil {
			return "", err
		}
		return join(RenderTable2(rows), RenderAffinePrediction(AffinePrediction(rows))), nil
	}},
	{"E4", "Table 3", []string{"E4"}, true, pure(func(bool) string {
		return RenderTable3(Table3Sweep(DefaultSensitivityConfig()))
	})},
	{"E5", "Figure 2", []string{"E5", "E10", "E13"}, true, pure(func(small bool) string {
		cfg := smallSweep(small, DefaultFigure2Config(), 4<<10, 16<<10, 64<<10)
		res := NodeSizeSweep(cfg)
		return join(RenderNodeSize(res, "Figure 2: B-tree ms/op vs node size (cf. paper: optimum ~64KiB, then near-linear growth)"),
			RenderOptima(Corollary7Check(res, cfg)))
	})},
	{"E6", "Figure 3", []string{"E6", "E11"}, true, pure(func(small bool) string {
		cfg := smallSweep(small, DefaultFigure3Config(), 64<<10, 256<<10)
		nb := scale(small, 512<<10, 256<<10)
		return join(RenderNodeSize(NodeSizeSweep(cfg), "Figure 3: Bε-tree ms/op vs node size (cf. paper: queries best ~512KiB, inserts ~4MiB, both flat)"),
			RenderAblation(Theorem9Ablation(cfg, nb), nb))
	})},
	{"E9", "Lemma 13", []string{"E9", "E9-dynamic"}, true, pure(func(small bool) string {
		cfg := DefaultLemma13Config()
		dcfg := DefaultLemma13DynamicConfig()
		if small {
			cfg.Items, cfg.QueriesPerClient = 1<<14, 20
			dcfg.Items, dcfg.QueriesPerClient = 10_000, 20
		}
		return join(RenderLemma13(Lemma13(cfg)), RenderLemma13Dynamic(Lemma13Dynamic(dcfg)))
	})},
	{"E12", "write amp", []string{"E12"}, true, pure(func(small bool) string {
		cfg := DefaultWriteAmpConfig()
		if small {
			cfg.Items, cfg.CacheBytes, cfg.NodeSizes = 8_000, 512<<10, []int{64 << 10}
		}
		return RenderWriteAmp(WriteAmp(cfg))
	})},
	{"E14", "flush policy", []string{"E14"}, true, pure(func(small bool) string {
		cfg := DefaultFlushPolicyConfig()
		if small {
			cfg.Items, cfg.Ops, cfg.KeySpace = 10_000, 4_000, 10_000
		}
		return RenderFlushPolicy(FlushPolicyAblation(cfg))
	})},
	{"E15", "device families", []string{"E15"}, true, pure(func(small bool) string {
		cfg := DefaultFigure2Config()
		cfg.Items, cfg.CacheBytes = 200_000, 4<<20
		cfg = smallSweep(small, cfg, 4<<10, 64<<10)
		prof := ssd.DefaultProfile()
		cfg.SSD = &prof
		return RenderNodeSize(NodeSizeSweep(cfg), fmt.Sprintf("E15: the Figure 2 sweep on the %s, %d pairs, %s cache", cfg.DeviceName(), cfg.Items, humanBytes(int(cfg.CacheBytes))))
	})},
	{"E16", "aging", []string{"E16"}, true, pure(func(small bool) string {
		cfg := DefaultAgingConfig()
		if small {
			cfg.Items, cfg.ChurnOps, cfg.ScanOps, cfg.ScanLen, cfg.CacheBytes = 20_000, 10_000, 5, 500, 1<<20
		}
		return RenderAging(Aging(cfg))
	})},
	{"E17", "asymmetry", []string{"E17"}, true, func(small bool) (string, error) {
		cfg := DefaultPDAMConfig()
		cfg.PerThreadIOs = scale(small, cfg.PerThreadIOs, 100)
		rows, err := Asymmetry(cfg)
		return RenderAsymmetry(rows), err
	}},
	{"E18", "epsilon", []string{"E18"}, true, pure(func(small bool) string {
		cfg := DefaultEpsilonConfig()
		if small {
			cfg.Items, cfg.QueryOps, cfg.InsertOps, cfg.CacheBytes = 20_000, 40, 1_000, 1<<20
			cfg.NodeBytes, cfg.Fanouts = 128<<10, []int{2, 8}
		}
		return RenderEpsilon(EpsilonSweep(cfg))
	})},
	{"E19", "durability", []string{"E19"}, true, pure(func(small bool) string {
		cfg := DefaultCrashConfig()
		if small {
			cfg.Items, cfg.CacheBytes, cfg.NodeBytes = 4_000, 1<<20, 32<<10
			cfg.Durability.JournalBytes, cfg.Durability.CheckpointEveryBytes = 16<<20, 512<<10
		}
		return RenderCrash(Crash(cfg))
	})},
	{"E20", "serving", []string{"E20"}, false, func(small bool) (string, error) {
		cfg := DefaultServingConfig()
		if small {
			cfg.Items, cfg.OpsPerClient, cfg.Writers = 30_000, 40, 16
		}
		rows, commits, err := Serving(cfg)
		return join(RenderServing(rows), RenderServingCommit(commits)), err
	}},
	{"E22", "MVCC serving", []string{"E22"}, false, func(small bool) (string, error) {
		cfg := DefaultMVCCServeConfig()
		cfg.Items = scale(small, cfg.Items, 12_000)
		rows, err := MVCCServe(cfg)
		return RenderMVCCServe(rows), err
	}},
	{"E23", "calibration and write isolation", []string{"E23"}, true, pure(func(bool) string {
		cfg := DefaultMQServingConfig()
		return join(RenderMQCalibration(MQCalibration(cfg)), RenderMQIsolation(MQWriteIsolation(cfg)))
	})},
	{"E23-serving", "multi-queue serving", []string{"E23-serving"}, false, func(small bool) (string, error) {
		cfg := DefaultMQServingConfig()
		if small {
			cfg.Items, cfg.OpsPerClient, cfg.Clients = 30_000, 40, []int{1, 8, 32}
		}
		rows, err := MQServing(cfg)
		if err != nil {
			return "", err
		}
		sum, err := MQResiduals(cfg)
		return join(RenderMQServing(rows), obs.RenderResiduals(sum)), err
	}},
	{"E24", "ship lag", []string{"E24"}, false, func(small bool) (string, error) {
		cfg := DefaultShipLagConfig()
		if small {
			cfg.Writers, cfg.WritesPerWriter = 6, 60
		}
		rows, err := ShipLag(cfg)
		return RenderShipLag(rows), err
	}},
	{"M1", "model calculator", []string{"M1"}, true, pure(func(bool) string { return RenderGuidance() })},
}

// smallSweep cuts a node-size sweep to the reduced scale: a small tree, a
// small cache and the given node sizes.
func smallSweep(small bool, cfg NodeSizeConfig, sizes ...int) NodeSizeConfig {
	if small {
		cfg.Items, cfg.CacheBytes, cfg.NodeSizes = 20_000, 1<<20, sizes
		cfg.QueryOps, cfg.InsertOps, cfg.ScanOps, cfg.ScanLen = 40, 400, 5, 200
	}
	return cfg
}

// Lookup returns the row that renders table id.
func Lookup(id string) (Row, bool) {
	for _, r := range Registry {
		if slices.Contains(r.Tables, id) {
			return r, true
		}
	}
	return Row{}, false
}

// blockEnd closes a generated block, which opens with "<!-- repro ID -->".
const blockEnd = "<!-- /repro -->"

// Blocks returns doc's generated blocks by row ID. It fails on a block that
// is not closed, repeats a row, or names no deterministic row.
func Blocks(doc string) (map[string]string, error) {
	blocks := map[string]string{}
	lines := strings.Split(doc, "\n")
	for i := 0; i < len(lines); i++ {
		id, ok := strings.CutPrefix(lines[i], "<!-- repro ")
		if !ok {
			continue
		}
		id = strings.TrimSuffix(id, " -->")
		if r, ok := Lookup(id); !ok || r.ID != id || !r.Deterministic {
			return nil, fmt.Errorf("line %d: block %q names no deterministic row", i+1, id)
		}
		if _, dup := blocks[id]; dup {
			return nil, fmt.Errorf("line %d: a second block for %s", i+1, id)
		}
		end := slices.Index(lines[i:], blockEnd)
		if end < 0 {
			return nil, fmt.Errorf("line %d: block %s is not closed by %s", i+1, id, blockEnd)
		}
		blocks[id] = strings.Join(lines[i+1:i+end], "\n")
		i += end
	}
	return blocks, nil
}

// Check renders each deterministic row of rows, at the reduced scale when
// small, and compares the output with the row's block in doc, logging one
// line per row. The error names every row whose block is missing or
// differs.
func Check(doc string, rows []Row, small bool, log io.Writer) error {
	blocks, err := Blocks(doc)
	if err != nil {
		return err
	}
	var errs []error
	for _, r := range rows {
		if !r.Deterministic {
			continue
		}
		block, ok := blocks[r.ID]
		if !ok {
			errs = append(errs, fmt.Errorf("%s: no generated block", r.ID))
			continue
		}
		start := time.Now()
		out, err := r.Run(small)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", r.ID, err))
			continue
		}
		verdict := "ok"
		if d := diff(strings.TrimSpace(block), strings.TrimSpace(out)); d != "" {
			verdict = "DIFFERS"
			errs = append(errs, fmt.Errorf("%s: the block differs from the render (- recorded, + rendered):\n%s", r.ID, d))
		}
		fmt.Fprintf(log, "%-4s %-7s %s\n", r.ID, verdict, time.Since(start).Round(time.Second))
	}
	return errors.Join(errs...)
}

// diff lists the lines at which recorded and rendered differ.
func diff(recorded, rendered string) string {
	a, b := strings.Split(recorded, "\n"), strings.Split(rendered, "\n")
	line := func(s []string, i int) string {
		if i < len(s) {
			return s[i]
		}
		return ""
	}
	var out strings.Builder
	for i := range max(len(a), len(b)) {
		if x, y := line(a, i), line(b, i); x != y {
			fmt.Fprintf(&out, "- %s\n+ %s\n", x, y)
		}
	}
	return out.String()
}

// Benchmarks, one per table and figure of the paper (see DESIGN.md's
// per-experiment index), plus host-CPU micro-benchmarks of the data
// structures themselves.
//
// The table/figure benches run the corresponding experiment harness at
// reduced scale and report the headline derived quantity as a custom
// metric (virtual time, derived P, write amplification, ...), so
// `go test -bench=.` regenerates every result in one sweep. cmd/repro runs
// the same harnesses at full scale through the experiment registry and
// prints the tables EXPERIMENTS.md records.
package iomodels

import (
	"fmt"
	"testing"

	"iomodels/internal/betree"
	"iomodels/internal/btree"
	"iomodels/internal/engine"
	"iomodels/internal/experiments"
	"iomodels/internal/hdd"
	"iomodels/internal/lsm"
	"iomodels/internal/pdamdev"
	"iomodels/internal/sim"
	"iomodels/internal/stats"
	"iomodels/internal/workload"
)

// BenchmarkFigure1 runs the §4.1 thread-scaling read experiment (E1).
func BenchmarkFigure1(b *testing.B) {
	cfg := experiments.DefaultPDAMConfig()
	cfg.PerThreadIOs = 256
	for i := 0; i < b.N; i++ {
		series := experiments.Figure1(cfg)
		b.ReportMetric(series[0].Points[len(series[0].Points)-1].Seconds, "vsec-p64-860pro")
	}
}

// BenchmarkTable1 derives the PDAM parameters by segmented regression (E2).
func BenchmarkTable1(b *testing.B) {
	cfg := experiments.DefaultPDAMConfig()
	cfg.PerThreadIOs = 256
	for i := 0; i < b.N; i++ {
		series := experiments.Figure1(cfg)
		rows, err := experiments.Table1(series, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].P, "derived-P-860pro")
		b.ReportMetric(rows[0].R2, "R2-860pro")
	}
}

// BenchmarkTable2 runs the §4.2 IO-size sweep and affine fit (E3).
func BenchmarkTable2(b *testing.B) {
	cfg := experiments.DefaultAffineConfig()
	cfg.Rounds = 32
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[2].Alpha, "alpha-hitachi")
		b.ReportMetric(rows[2].R2, "R2-hitachi")
	}
}

// BenchmarkTable3 evaluates the sensitivity formulas (E4).
func BenchmarkTable3(b *testing.B) {
	cfg := experiments.DefaultSensitivityConfig()
	for i := 0; i < b.N; i++ {
		pts := experiments.Table3Sweep(cfg)
		b.ReportMetric(pts[len(pts)-1].Rows[0].Query, "btree-qry-at-16MiB")
	}
}

// benchFig2Cfg is the reduced Figure 2 sweep shared by the E5/E10 benches.
func benchFig2Cfg() experiments.NodeSizeConfig {
	cfg := experiments.DefaultFigure2Config()
	cfg.Items = 20_000
	cfg.CacheBytes = 1 << 20
	cfg.QueryOps = 60
	cfg.InsertOps = 200
	cfg.NodeSizes = []int{16 << 10, 64 << 10, 256 << 10}
	return cfg
}

// BenchmarkFigure2 runs the B-tree node-size sweep (E5).
func BenchmarkFigure2(b *testing.B) {
	cfg := benchFig2Cfg()
	for i := 0; i < b.N; i++ {
		res := experiments.NodeSizeSweep(cfg)
		b.ReportMetric(res.Points[1].QueryMs, "vms-query-64KiB")
		b.ReportMetric(res.Points[1].InsertMs, "vms-insert-64KiB")
	}
}

// BenchmarkFigure3 runs the Bε-tree node-size sweep (E6).
func BenchmarkFigure3(b *testing.B) {
	cfg := experiments.DefaultFigure3Config()
	cfg.Items = 40_000
	cfg.CacheBytes = 1 << 20
	cfg.QueryOps = 60
	cfg.InsertOps = 2000
	cfg.NodeSizes = []int{64 << 10, 256 << 10, 1 << 20}
	for i := 0; i < b.N; i++ {
		res := experiments.NodeSizeSweep(cfg)
		b.ReportMetric(res.Points[2].QueryMs, "vms-query-1MiB")
		b.ReportMetric(res.Points[2].InsertMs, "vms-insert-1MiB")
	}
}

// BenchmarkCorollary7 checks the measured-vs-model B-tree optimum (E10).
func BenchmarkCorollary7(b *testing.B) {
	cfg := benchFig2Cfg()
	for i := 0; i < b.N; i++ {
		res := experiments.NodeSizeSweep(cfg)
		opt := experiments.Corollary7Check(res, cfg)
		b.ReportMetric(opt.ModelOptimal/1024, "model-opt-KiB")
		b.ReportMetric(float64(opt.MeasuredBestInsert)/1024, "measured-opt-KiB")
	}
}

// BenchmarkTheorem9 runs the node-organization ablation (E11).
func BenchmarkTheorem9(b *testing.B) {
	cfg := experiments.DefaultFigure3Config()
	cfg.Items = 40_000
	cfg.CacheBytes = 1 << 20
	cfg.QueryOps = 60
	cfg.InsertOps = 2000
	for i := 0; i < b.N; i++ {
		rows := experiments.Theorem9Ablation(cfg, 256<<10)
		b.ReportMetric(rows[0].QueryMs, "vms-query-lemma8")
		b.ReportMetric(rows[2].QueryMs, "vms-query-theorem9")
	}
}

// BenchmarkWriteAmp measures write amplification across structures (E12).
func BenchmarkWriteAmp(b *testing.B) {
	cfg := experiments.DefaultWriteAmpConfig()
	cfg.Items = 15_000
	cfg.CacheBytes = 256 << 10 // force write-back traffic at bench scale
	cfg.NodeSizes = []int{256 << 10}
	for i := 0; i < b.N; i++ {
		rows := experiments.WriteAmp(cfg)
		for _, r := range rows {
			switch r.Structure {
			case "B-tree":
				b.ReportMetric(r.WriteAmp, "WA-btree")
			case "Bε-tree":
				b.ReportMetric(r.WriteAmp, "WA-betree")
			case "LSM-tree":
				b.ReportMetric(r.WriteAmp, "WA-lsm")
			}
		}
	}
}

// BenchmarkLemma13 runs the §8 concurrent-throughput experiment (E9).
func BenchmarkLemma13(b *testing.B) {
	cfg := experiments.DefaultLemma13Config()
	cfg.Items = 1 << 16
	cfg.QueriesPerClient = 50
	for i := 0; i < b.N; i++ {
		rows := experiments.Lemma13(cfg)
		for _, r := range rows {
			if r.Clients == cfg.P {
				b.ReportMetric(r.Throughput, "qps-"+shortDesign(r.Design.String()))
			}
		}
	}
}

func shortDesign(s string) string {
	switch {
	case s == "B-nodes":
		return "block"
	case s == "PB-nodes (fetch whole)":
		return "whole"
	default:
		return "veb"
	}
}

// BenchmarkConcurrentQueries runs k concurrent clients against one shared
// dictionary through the engine's sharded pager — the Lemma 13 setup on
// the real trees — across tree type and device family. The custom metric
// is virtual milliseconds per query: it should FALL as k grows on the
// parallel device (clients' IOs overlap) and stay near-flat on the hard
// drive (one head, no parallelism to exploit).
func BenchmarkConcurrentQueries(b *testing.B) {
	spec := workload.DefaultSpec()
	const items = 30_000
	const queries = 50

	devices := []struct {
		name string
		make func() (*Clock, *Engine)
	}{
		{"hdd", func() (*Clock, *Engine) {
			clk := NewClock()
			eng := engine.New(EngineConfig{CacheBytes: 1 << 20, Shards: 4},
				hdd.NewDeterministic(hdd.DefaultProfile()), clk)
			return clk, eng
		}},
		{"pdam", func() (*Clock, *Engine) {
			clk := NewClock()
			dev := pdamdev.New(16, 4<<10, sim.Millisecond)
			eng := engine.New(EngineConfig{CacheBytes: 1 << 20, Shards: 4},
				dev.Storage(1<<31), clk)
			return clk, eng
		}},
	}
	trees := []struct {
		name string
		make func(eng *Engine) func(c *Client) Dictionary
	}{
		{"btree", func(eng *Engine) func(c *Client) Dictionary {
			t, err := btree.New(btree.Config{
				NodeBytes: 4 << 10, MaxKeyBytes: spec.KeyBytes, MaxValueBytes: spec.ValueBytes,
			}, eng)
			if err != nil {
				b.Fatal(err)
			}
			workload.Load(t, spec, items)
			t.Flush()
			return func(c *Client) Dictionary { return t.Session(c) }
		}},
		{"betree", func(eng *Engine) func(c *Client) Dictionary {
			t, err := betree.New(betree.Config{
				NodeBytes: 64 << 10, MaxFanout: 16,
				MaxKeyBytes: spec.KeyBytes, MaxValueBytes: spec.ValueBytes,
			}.Optimized(), eng)
			if err != nil {
				b.Fatal(err)
			}
			workload.Load(t, spec, items)
			t.Settle()
			t.Flush()
			return func(c *Client) Dictionary { return t.Session(c) }
		}},
	}
	for _, dv := range devices {
		for _, tr := range trees {
			clk, eng := dv.make()
			session := tr.make(eng)
			for _, k := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("%s/%s/k=%d", dv.name, tr.name, k), func(b *testing.B) {
					var elapsed VirtualTime
					for i := 0; i < b.N; i++ {
						eng.Pager().EvictAll(eng.Owner())
						root := stats.NewRNG(uint64(41 + k))
						start := clk.Now()
						for c := 0; c < k; c++ {
							rng := root.Split(uint64(c))
							clk.Go(func(pr *sim.Proc) {
								s := session(eng.Process(pr))
								for q := 0; q < queries; q++ {
									id := uint64(rng.Int63n(items))
									if _, ok := s.Get(spec.Key(id)); !ok {
										b.Error("lost a key")
										return
									}
								}
							})
						}
						clk.Run()
						elapsed += clk.Now() - start
					}
					b.ReportMetric(elapsed.Milliseconds()/float64(b.N*k*queries), "vms/query")
				})
			}
		}
	}
}

// --- host-CPU micro-benchmarks of the data structures -------------------

func benchEngine(cacheBytes int64) *Engine {
	clk := NewClock()
	disk := NewHDD(HDDProfiles()[2], 1, clk)
	return NewEngine(EngineConfig{CacheBytes: cacheBytes}, disk)
}

func benchBTree(b *testing.B) *btree.Tree {
	tree, err := btree.New(btree.Config{
		NodeBytes: 64 << 10, MaxKeyBytes: 16, MaxValueBytes: 100,
	}, benchEngine(32<<20))
	if err != nil {
		b.Fatal(err)
	}
	return tree
}

func BenchmarkBTreePut(b *testing.B) {
	tree := benchBTree(b)
	spec := workload.DefaultSpec()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i)
		tree.Put(spec.Key(id), spec.Value(id))
	}
}

func BenchmarkBTreeGet(b *testing.B) {
	tree := benchBTree(b)
	spec := workload.DefaultSpec()
	const items = 100_000
	workload.Load(tree, spec, items)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Get(spec.Key(uint64(i) % items))
	}
}

func benchBeTree(b *testing.B) *betree.Tree {
	tree, err := betree.New(betree.Config{
		NodeBytes: 256 << 10, MaxFanout: 16, MaxKeyBytes: 16, MaxValueBytes: 100,
	}.Optimized(), benchEngine(32<<20))
	if err != nil {
		b.Fatal(err)
	}
	return tree
}

func BenchmarkBeTreePut(b *testing.B) {
	tree := benchBeTree(b)
	spec := workload.DefaultSpec()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i)
		tree.Put(spec.Key(id), spec.Value(id))
	}
}

func BenchmarkBeTreeGet(b *testing.B) {
	tree := benchBeTree(b)
	spec := workload.DefaultSpec()
	const items = 100_000
	workload.Load(tree, spec, items)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Get(spec.Key(uint64(i) % items))
	}
}

func BenchmarkBeTreeUpsert(b *testing.B) {
	tree := benchBeTree(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Upsert([]byte(fmt.Sprintf("ctr%04d", i%1000)), 1)
	}
}

func BenchmarkLSMPut(b *testing.B) {
	tree, err := lsm.New(lsm.DefaultConfig(), benchEngine(32<<20))
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.DefaultSpec()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i)
		tree.Put(spec.Key(id), spec.Value(id))
	}
}

func BenchmarkCOBTreePut(b *testing.B) {
	tree, err := NewCOBTree(COBTreeConfig{
		MaxKeyBytes: 16, MaxValueBytes: 100, BlockBytes: 4 << 10,
	}, benchEngine(32<<20))
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.DefaultSpec()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i)
		tree.Put(spec.Key(id), spec.Value(id))
	}
}

func BenchmarkCOBTreeGet(b *testing.B) {
	tree, err := NewCOBTree(COBTreeConfig{
		MaxKeyBytes: 16, MaxValueBytes: 100, BlockBytes: 4 << 10,
	}, benchEngine(32<<20))
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.DefaultSpec()
	const items = 100_000
	workload.Load(tree, spec, items)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Get(spec.Key(uint64(i) % items))
	}
}

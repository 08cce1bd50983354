// E5 (Figure 2), E6 (Figure 3), E10 (Corollary 7 check) and E11 (Theorem 9
// ablation): node-size sweeps of the disk-backed B-tree (BerkeleyDB
// stand-in) and Bε-tree (TokuDB stand-in) on a simulated HDD.
//
// Methodology follows §7: load a key-value population, then measure the
// average virtual time of random point queries and random inserts at each
// node size, overlaying the affine model's prediction. Sizes are scaled
// from the paper's 16 GB / 4 GiB-RAM setup, keeping the data:cache ratio
// (all knobs are exposed in NodeSizeConfig).

package experiments

import (
	"fmt"

	"iomodels/internal/betree"
	"iomodels/internal/btree"
	"iomodels/internal/core"
	"iomodels/internal/engine"
	"iomodels/internal/hdd"
	"iomodels/internal/sim"
	"iomodels/internal/ssd"
	"iomodels/internal/storage"
	"iomodels/internal/workload"
)

// NodeSizeConfig parameterizes the Figure 2/3 sweeps.
type NodeSizeConfig struct {
	Items      int64
	CacheBytes int64
	QueryOps   int
	InsertOps  int
	ScanOps    int // range queries measured per node size
	ScanLen    int // items returned per range query
	NodeSizes  []int
	Fanout     int // Bε-tree only
	Profile    hdd.Profile
	// SSD, when non-nil, runs the sweep on this solid-state profile instead
	// of the hard drive (the E15 device-family comparison).
	SSD       *ssd.Profile
	Spec      workload.KeySpec
	Seed      uint64
	Optimized bool // Bε-tree only: Theorem 9 organization
}

// DefaultFigure2Config is the BerkeleyDB-style sweep (4 KiB – 1 MiB nodes).
func DefaultFigure2Config() NodeSizeConfig {
	return NodeSizeConfig{
		Items:      300_000,
		CacheBytes: 8 << 20,
		QueryOps:   300,
		InsertOps:  2000,
		ScanOps:    30,
		ScanLen:    1000,
		NodeSizes:  []int{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20},
		Profile:    hdd.DefaultProfile(),
		Spec:       workload.DefaultSpec(),
		Seed:       3,
	}
}

// DefaultFigure3Config is the TokuDB-style sweep (64 KiB – 4 MiB nodes).
func DefaultFigure3Config() NodeSizeConfig {
	return NodeSizeConfig{
		Items:      600_000,
		CacheBytes: 16 << 20,
		QueryOps:   300,
		InsertOps:  30_000,
		ScanOps:    30,
		ScanLen:    1000,
		NodeSizes:  []int{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20},
		Fanout:     betree.DefaultFanout,
		Profile:    hdd.DefaultProfile(),
		Spec:       workload.DefaultSpec(),
		Seed:       4,
		Optimized:  true,
	}
}

// NodeSizePoint is one measurement of the sweep, with the affine model's
// prediction alongside (the fitted curves of Figures 2 and 3).
type NodeSizePoint struct {
	NodeBytes     int
	QueryMs       float64
	InsertMs      float64
	ScanUsItem    float64 // microseconds per item returned by range queries
	ModelQueryMs  float64
	ModelInsertMs float64
	ModelScanUsIt float64
	Pager         engine.PagerStats // buffer-pool traffic over the measured phases
}

// NodeSizeResult is a full sweep.
type NodeSizeResult struct {
	Tree   string
	Device string
	Points []NodeSizePoint
}

// affineOf returns the affine model the profile realizes.
func affineOf(p hdd.Profile) core.Affine {
	return core.Affine{Setup: p.ExpectedSetup().Seconds(), PerByte: 1 / p.Bandwidth}
}

// makeDevice builds the sweep's storage device.
func (cfg NodeSizeConfig) makeDevice() storage.Device {
	if cfg.SSD != nil {
		return ssd.New(*cfg.SSD)
	}
	return hdd.New(cfg.Profile, cfg.Seed)
}

// affine returns the affine approximation of the configured device: for an
// SSD, the setup cost is one piece's service time and the marginal byte
// moves at the (striped) saturation bandwidth.
func (cfg NodeSizeConfig) affine() core.Affine {
	if cfg.SSD != nil {
		p := *cfg.SSD
		return core.Affine{
			Setup:   (p.PieceTime(p.StripeBytes) + sim.FromSeconds(float64(p.StripeBytes)/p.ChanBandwidth)).Seconds(),
			PerByte: 1 / p.SaturationBandwidth(p.StripeBytes),
		}
	}
	return affineOf(cfg.Profile)
}

// DeviceName names the configured device.
func (cfg NodeSizeConfig) DeviceName() string {
	if cfg.SSD != nil {
		return cfg.SSD.Name
	}
	return cfg.Profile.Name
}

func (cfg NodeSizeConfig) entryBytes() float64 {
	return float64(cfg.Spec.KeyBytes + cfg.Spec.ValueBytes + 8)
}

// Figure2 sweeps the B-tree.
func Figure2(cfg NodeSizeConfig) NodeSizeResult {
	res := NodeSizeResult{Tree: "B-tree", Device: cfg.DeviceName()}
	a := cfg.affine()
	for _, nb := range cfg.NodeSizes {
		clk := sim.New()
		eng := engine.New(engine.Config{CacheBytes: cfg.CacheBytes}, cfg.makeDevice(), clk)
		tree, err := btree.New(btree.Config{
			NodeBytes:     nb,
			MaxKeyBytes:   cfg.Spec.KeyBytes,
			MaxValueBytes: cfg.Spec.ValueBytes,
		}, eng)
		if err != nil {
			panic(fmt.Sprintf("experiments: figure2 config: %v", err))
		}
		workload.Load(tree, cfg.Spec, cfg.Items)
		tree.Flush()
		eng.Pager().ResetStats()

		queryMs := measurePhase(clk, cfg.QueryOps, func(i int) {
			id := uint64(int64(i*2654435761) % cfg.Items)
			tree.Get(cfg.Spec.Key(id))
		}, nil)
		insertMs := measurePhase(clk, cfg.InsertOps, func(i int) {
			id := uint64(cfg.Items + int64(i))
			tree.Put(cfg.Spec.Key(id), cfg.Spec.Value(id))
		}, tree.Flush)
		scanUs := measureScans(clk, cfg, func(lo []byte, n int) {
			count := 0
			tree.Scan(lo, nil, func(k, v []byte) bool {
				count++
				return count < n
			})
		})

		p := core.BTreeParams{
			NodeBytes:  float64(nb),
			EntryBytes: cfg.entryBytes(),
			Items:      float64(cfg.Items),
			CacheBytes: float64(cfg.CacheBytes),
		}
		res.Points = append(res.Points, NodeSizePoint{
			NodeBytes:     nb,
			QueryMs:       queryMs,
			InsertMs:      insertMs,
			ScanUsItem:    scanUs,
			ModelQueryMs:  core.BTreePointCost(a, p) * 1000,
			ModelInsertMs: core.BTreePointCost(a, p) * 1000,
			ModelScanUsIt: core.BTreeRangeCost(a, p, float64(cfg.ScanLen)) / float64(maxInt(cfg.ScanLen, 1)) * 1e6,
			Pager:         eng.Pager().Stats(),
		})
	}
	return res
}

// Figure3 sweeps the Bε-tree.
func Figure3(cfg NodeSizeConfig) NodeSizeResult {
	name := "Bε-tree"
	if !cfg.Optimized {
		name = "Bε-tree (naive)"
	}
	res := NodeSizeResult{Tree: name, Device: cfg.DeviceName()}
	a := cfg.affine()
	for _, nb := range cfg.NodeSizes {
		bcfg := betree.Config{
			NodeBytes:     nb,
			MaxFanout:     cfg.Fanout,
			MaxKeyBytes:   cfg.Spec.KeyBytes,
			MaxValueBytes: cfg.Spec.ValueBytes,
		}
		if cfg.Optimized {
			bcfg = bcfg.Optimized()
		}
		clk := sim.New()
		eng := engine.New(engine.Config{CacheBytes: cfg.CacheBytes}, cfg.makeDevice(), clk)
		tree, err := betree.New(bcfg, eng)
		if err != nil {
			panic(fmt.Sprintf("experiments: figure3 config at %d: %v", nb, err))
		}
		workload.Load(tree, cfg.Spec, cfg.Items)
		tree.Flush()
		eng.Pager().ResetStats()

		queryMs := measurePhase(clk, cfg.QueryOps, func(i int) {
			id := uint64(int64(i*2654435761) % cfg.Items)
			tree.Get(cfg.Spec.Key(id))
		}, nil)
		insertMs := measurePhase(clk, cfg.InsertOps, func(i int) {
			id := uint64(cfg.Items + int64(i))
			tree.Put(cfg.Spec.Key(id), cfg.Spec.Value(id))
		}, tree.Flush)
		scanUs := measureScans(clk, cfg, func(lo []byte, n int) {
			count := 0
			tree.Scan(lo, nil, func(k, v []byte) bool {
				count++
				return count < n
			})
		})

		p := core.BeTreeParams{
			NodeBytes:  float64(nb),
			EntryBytes: cfg.entryBytes(),
			PivotBytes: float64(cfg.Spec.KeyBytes + 12),
			Fanout:     float64(cfg.Fanout),
			Items:      float64(cfg.Items),
			CacheBytes: float64(cfg.CacheBytes),
			Optimized:  cfg.Optimized,
		}
		res.Points = append(res.Points, NodeSizePoint{
			NodeBytes:     nb,
			QueryMs:       queryMs,
			InsertMs:      insertMs,
			ScanUsItem:    scanUs,
			ModelQueryMs:  core.BeTreePointCost(a, p) * 1000,
			ModelInsertMs: core.BeTreeInsertCost(a, p) * 1000,
			ModelScanUsIt: core.BeTreeRangeCost(a, p, float64(cfg.ScanLen)) / float64(maxInt(cfg.ScanLen, 1)) * 1e6,
			Pager:         eng.Pager().Stats(),
		})
	}
	return res
}

// measureScans runs cfg.ScanOps range queries of cfg.ScanLen items and
// returns virtual microseconds per item returned (0 if scans disabled).
func measureScans(clk *sim.Engine, cfg NodeSizeConfig, scan func(lo []byte, n int)) float64 {
	if cfg.ScanOps <= 0 || cfg.ScanLen <= 0 {
		return 0
	}
	start := clk.Now()
	for i := 0; i < cfg.ScanOps; i++ {
		id := uint64(int64(i*7919) % cfg.Items)
		scan(cfg.Spec.Key(id), cfg.ScanLen)
	}
	total := float64(cfg.ScanOps * cfg.ScanLen)
	return (clk.Now() - start).Milliseconds() * 1000 / total
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// measurePhase runs ops and returns virtual milliseconds per op, including
// any closing cost (e.g. the write-back the ops deferred).
func measurePhase(clk *sim.Engine, ops int, run func(i int), closing func()) float64 {
	start := clk.Now()
	for i := 0; i < ops; i++ {
		run(i)
	}
	if closing != nil {
		closing()
	}
	return (clk.Now() - start).Milliseconds() / float64(ops)
}

// RenderNodeSize formats a Figure 2/3 sweep.
func RenderNodeSize(res NodeSizeResult, title string) string {
	return renderRows(title, res.Points, []column[NodeSizePoint]{
		{"Node size", func(p NodeSizePoint) string { return humanBytes(p.NodeBytes) }},
		{"query ms/op", func(p NodeSizePoint) string { return f3(p.QueryMs) }},
		{"model", func(p NodeSizePoint) string { return f3(p.ModelQueryMs) }},
		{"insert ms/op", func(p NodeSizePoint) string { return f3(p.InsertMs) }},
		{"model", func(p NodeSizePoint) string { return f3(p.ModelInsertMs) }},
		{"scan µs/item", func(p NodeSizePoint) string { return f2(p.ScanUsItem) }},
		{"model", func(p NodeSizePoint) string { return f2(p.ModelScanUsIt) }},
		{"hit%", func(p NodeSizePoint) string { return f2(p.Pager.HitRatio() * 100) }},
	})
}

// RenderNodeSizeCSV emits the sweep as CSV.
func RenderNodeSizeCSV(res NodeSizeResult) string {
	return RenderCSV(grid(res.Points, []column[NodeSizePoint]{
		{"node_bytes", func(p NodeSizePoint) string { return intStr(p.NodeBytes) }},
		{"query_ms", func(p NodeSizePoint) string { return f4(p.QueryMs) }},
		{"model_query_ms", func(p NodeSizePoint) string { return f4(p.ModelQueryMs) }},
		{"insert_ms", func(p NodeSizePoint) string { return f4(p.InsertMs) }},
		{"model_insert_ms", func(p NodeSizePoint) string { return f4(p.ModelInsertMs) }},
		{"scan_us_item", func(p NodeSizePoint) string { return f4(p.ScanUsItem) }},
		{"model_scan_us_item", func(p NodeSizePoint) string { return f4(p.ModelScanUsIt) }},
	}))
}

// OptimaRow is E10: where the measured B-tree optimum falls versus the
// model's Corollary 7 optimum and the half-bandwidth point.
type OptimaRow struct {
	MeasuredBestQuery  int
	MeasuredBestInsert int
	ModelOptimal       float64
	HalfBandwidth      float64
}

// Corollary7Check extracts E10 from a Figure 2 sweep.
func Corollary7Check(res NodeSizeResult, cfg NodeSizeConfig) OptimaRow {
	best := func(get func(NodeSizePoint) float64) int {
		bi, bv := 0, get(res.Points[0])
		for i, p := range res.Points {
			if v := get(p); v < bv {
				bi, bv = i, v
			}
		}
		return res.Points[bi].NodeBytes
	}
	a := cfg.affine()
	return OptimaRow{
		MeasuredBestQuery:  best(func(p NodeSizePoint) float64 { return p.QueryMs }),
		MeasuredBestInsert: best(func(p NodeSizePoint) float64 { return p.InsertMs }),
		ModelOptimal:       core.OptimalBTreeNodeBytes(a, cfg.entryBytes()),
		HalfBandwidth:      a.HalfBandwidthBytes(),
	}
}

// RenderOptima formats E10.
func RenderOptima(r OptimaRow) string {
	return renderRows("E10 (Corollary 7): optimal B-tree node size sits below the half-bandwidth point", []OptimaRow{r}, []column[OptimaRow]{
		{"best query node", func(r OptimaRow) string { return humanBytes(r.MeasuredBestQuery) }},
		{"best insert node", func(r OptimaRow) string { return humanBytes(r.MeasuredBestInsert) }},
		{"model optimum", func(r OptimaRow) string { return humanBytes(int(r.ModelOptimal)) }},
		{"half-bandwidth", func(r OptimaRow) string { return humanBytes(int(r.HalfBandwidth)) }},
	})
}

// AblationRow is E11: one Bε-tree node organization at a fixed geometry.
type AblationRow struct {
	Mode     string
	QueryMs  float64
	InsertMs float64
}

// Theorem9Ablation measures the three query organizations at one node size:
// whole-node reads (Lemma 8 baseline), segmented buffers (meta+slot reads),
// and the full Theorem 9 design (pivots-in-parent, slot-only reads).
func Theorem9Ablation(cfg NodeSizeConfig, nodeBytes int) []AblationRow {
	type variant struct {
		name   string
		layout betree.Layout
		qm     betree.QueryMode
	}
	variants := []variant{
		{"whole-node (Lemma 8)", betree.Packed, betree.WholeNode},
		{"segmented buffers (meta+slot)", betree.Slotted, betree.MetaPlusSlot},
		{"pivots-in-parent (Theorem 9)", betree.Slotted, betree.SlotOnly},
	}
	var rows []AblationRow
	for _, v := range variants {
		clk := sim.New()
		eng := engine.New(engine.Config{CacheBytes: cfg.CacheBytes}, hdd.New(cfg.Profile, cfg.Seed), clk)
		tree, err := betree.New(betree.Config{
			NodeBytes:     nodeBytes,
			MaxFanout:     cfg.Fanout,
			MaxKeyBytes:   cfg.Spec.KeyBytes,
			MaxValueBytes: cfg.Spec.ValueBytes,
			Layout:        v.layout,
			QueryMode:     v.qm,
		}, eng)
		if err != nil {
			panic(fmt.Sprintf("experiments: ablation: %v", err))
		}
		workload.Load(tree, cfg.Spec, cfg.Items)
		tree.Flush()
		queryMs := measurePhase(clk, cfg.QueryOps, func(i int) {
			id := uint64(int64(i*2654435761) % cfg.Items)
			tree.Get(cfg.Spec.Key(id))
		}, nil)
		insertMs := measurePhase(clk, cfg.InsertOps, func(i int) {
			id := uint64(cfg.Items + int64(i))
			tree.Put(cfg.Spec.Key(id), cfg.Spec.Value(id))
		}, tree.Flush)
		rows = append(rows, AblationRow{Mode: v.name, QueryMs: queryMs, InsertMs: insertMs})
	}
	return rows
}

// RenderAblation formats E11.
func RenderAblation(rows []AblationRow, nodeBytes int) string {
	title := fmt.Sprintf("E11 (Theorem 9 ablation) at B=%s: each optimization cuts query cost, inserts unchanged", humanBytes(nodeBytes))
	return renderRows(title, rows, []column[AblationRow]{
		{"Organization", func(r AblationRow) string { return r.Mode }},
		{"query ms/op", func(r AblationRow) string { return f3(r.QueryMs) }},
		{"insert ms/op", func(r AblationRow) string { return f3(r.InsertMs) }},
	})
}

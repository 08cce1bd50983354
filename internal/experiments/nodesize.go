// E5 (Figure 2), E6 (Figure 3), E10 (Corollary 7 check), E11 (Theorem 9
// ablation) and E15 (Figure 2 on an SSD): one node-size sweep, of the
// disk-backed B-tree (BerkeleyDB stand-in) or the Bε-tree (TokuDB
// stand-in) on a simulated HDD or SSD.
//
// Methodology follows §7: load a key-value population, then measure the
// average virtual time of random point queries, random inserts and range
// scans at each node size (the tree harness's point measurement), overlaying
// the affine model's prediction for that tree. Sizes are scaled from the
// paper's 16 GB / 4 GiB-RAM setup, keeping the data:cache ratio (all knobs
// are exposed in NodeSizeConfig).

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

// NodeSizeConfig parameterizes the node-size sweep.
type NodeSizeConfig struct {
	Items      int64
	CacheBytes int64
	QueryOps   int
	InsertOps  int
	ScanOps    int // range queries measured per node size
	ScanLen    int // items returned per range query
	NodeSizes  []int
	Fanout     int // the Bε-tree's maximum fanout; 0 sweeps the B-tree
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

// NodeSizeSweep measures cfg's tree at each of cfg.NodeSizes, one point
// per size, with the affine model's prediction beside each: Figure 2 (E5,
// and E15 on another device) on the B-tree, Figure 3 (E6) on the Bε-tree.
func NodeSizeSweep(cfg NodeSizeConfig) NodeSizeResult {
	name := "B-tree"
	if cfg.Fanout > 0 {
		name = "Bε-tree"
		if !cfg.Optimized {
			name = "Bε-tree (naive)"
		}
	}
	return NodeSizeResult{Tree: name, Device: cfg.DeviceName(), Points: sweep(cfg.NodeSizes, cfg.point)}
}

// point is one node size of the sweep.
func (cfg NodeSizeConfig) point(nb int) NodeSizePoint {
	a := cfg.affine()
	var p NodeSizePoint
	if cfg.Fanout == 0 {
		p, _ = measure(cfg, bind(btree.New, bTree(cfg.Spec, nb)))
		m := core.BTreeParams{
			NodeBytes:  float64(nb),
			EntryBytes: cfg.entryBytes(),
			Items:      float64(cfg.Items),
			CacheBytes: float64(cfg.CacheBytes),
		}
		p.ModelQueryMs = core.BTreePointCost(a, m) * 1000
		p.ModelInsertMs = p.ModelQueryMs
		p.ModelScanUsIt = core.BTreeRangeCost(a, m, float64(cfg.ScanLen)) / float64(max(cfg.ScanLen, 1)) * 1e6
	} else {
		bcfg := beTree(cfg.Spec, nb, cfg.Fanout)
		if cfg.Optimized {
			bcfg = bcfg.Optimized()
		}
		p, _ = measure(cfg, bind(betree.New, bcfg))
		m := core.BeTreeParams{
			NodeBytes:  float64(nb),
			EntryBytes: cfg.entryBytes(),
			PivotBytes: float64(cfg.Spec.KeyBytes + 12),
			Fanout:     float64(cfg.Fanout),
			Items:      float64(cfg.Items),
			CacheBytes: float64(cfg.CacheBytes),
			Optimized:  cfg.Optimized,
		}
		p.ModelQueryMs = core.BeTreePointCost(a, m) * 1000
		p.ModelInsertMs = core.BeTreeInsertCost(a, m) * 1000
		p.ModelScanUsIt = core.BeTreeRangeCost(a, m, float64(cfg.ScanLen)) / float64(max(cfg.ScanLen, 1)) * 1e6
	}
	p.NodeBytes = nb
	return p
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
	cfg.ScanOps = 0
	return sweep([]variant{
		{"whole-node (Lemma 8)", betree.Packed, betree.WholeNode},
		{"segmented buffers (meta+slot)", betree.Slotted, betree.MetaPlusSlot},
		{"pivots-in-parent (Theorem 9)", betree.Slotted, betree.SlotOnly},
	}, func(v variant) AblationRow {
		bcfg := beTree(cfg.Spec, nodeBytes, cfg.Fanout)
		bcfg.Layout, bcfg.QueryMode = v.layout, v.qm
		p, _ := measure(cfg, bind(betree.New, bcfg))
		return AblationRow{Mode: v.name, QueryMs: p.QueryMs, InsertMs: p.InsertMs}
	})
}

// RenderAblation formats E11.
func RenderAblation(rows []AblationRow, nodeBytes int) string {
	title := fmt.Sprintf("E11 (Theorem 9 ablation) at B=%s: each optimization cuts query cost; segmented buffers make inserts slower", humanBytes(nodeBytes))
	return renderRows(title, rows, []column[AblationRow]{
		{"Organization", func(r AblationRow) string { return r.Mode }},
		{"query ms/op", func(r AblationRow) string { return f3(r.QueryMs) }},
		{"insert ms/op", func(r AblationRow) string { return f3(r.InsertMs) }},
	})
}

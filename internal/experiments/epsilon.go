// E18 (§3 / Theorem 4): the ε spectrum. The Bε-tree's fanout F = Bε+1
// interpolates between a buffered repository tree (ε→0: fanout 2, fastest
// inserts, slowest queries) and a B-tree (ε→1: fanout B, slowest inserts,
// fastest queries). Theorem 4 promises inserts a factor εB^(1-ε) faster
// than a B-tree at only a 1/ε query penalty. This experiment sweeps F at a
// fixed node size and measures both sides of the tradeoff; TokuDB's
// F ∈ [10,20] sits near the sweet spot.

package experiments

import (
	"iomodels/internal/betree"
	"iomodels/internal/hdd"
	"iomodels/internal/workload"
)

// EpsilonConfig parameterizes E18.
type EpsilonConfig struct {
	Items      int64
	QueryOps   int
	InsertOps  int
	NodeBytes  int
	Fanouts    []int
	CacheBytes int64
	Profile    hdd.Profile
	Spec       workload.KeySpec
	Seed       uint64
}

// DefaultEpsilonConfig sweeps fanout 2..64 at 1 MiB nodes.
func DefaultEpsilonConfig() EpsilonConfig {
	return EpsilonConfig{
		Items:      300_000,
		QueryOps:   200,
		InsertOps:  20_000,
		NodeBytes:  1 << 20,
		Fanouts:    []int{2, 4, 8, 16, 32, 64},
		CacheBytes: 8 << 20,
		Profile:    hdd.DefaultProfile(),
		Spec:       workload.DefaultSpec(),
		Seed:       41,
	}
}

// EpsilonRow is one fanout's measurement.
type EpsilonRow struct {
	Fanout   int
	Epsilon  float64
	InsertMs float64
	QueryMs  float64
	Height   int
}

// EpsilonSweep runs E18: the point measurement at each fanout, without
// scans.
func EpsilonSweep(cfg EpsilonConfig) []EpsilonRow {
	ncfg := NodeSizeConfig{Items: cfg.Items, CacheBytes: cfg.CacheBytes, QueryOps: cfg.QueryOps,
		InsertOps: cfg.InsertOps, Profile: cfg.Profile, Spec: cfg.Spec, Seed: cfg.Seed}
	return sweep(cfg.Fanouts, func(f int) EpsilonRow {
		bcfg := beTree(cfg.Spec, cfg.NodeBytes, f).Optimized()
		p, tree := measure(ncfg, bind(betree.New, bcfg))
		return EpsilonRow{
			Fanout:   f,
			Epsilon:  bcfg.Epsilon(cfg.Spec.KeyBytes + cfg.Spec.ValueBytes + 8),
			InsertMs: p.InsertMs,
			QueryMs:  p.QueryMs,
			Height:   tree.Height(),
		}
	})
}

// RenderEpsilon formats E18.
func RenderEpsilon(rows []EpsilonRow) string {
	return renderRows("E18 (Theorem 4): the ε spectrum — fanout trades insert cost against query cost", rows, []column[EpsilonRow]{
		{"F", func(r EpsilonRow) string { return intStr(r.Fanout) }},
		{"ε", func(r EpsilonRow) string { return f2(r.Epsilon) }},
		{"insert ms/op", func(r EpsilonRow) string { return f3(r.InsertMs) }},
		{"query ms/op", func(r EpsilonRow) string { return f3(r.QueryMs) }},
		{"height", func(r EpsilonRow) string { return intStr(r.Height) }},
	})
}

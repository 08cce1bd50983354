// E12 (Lemma 3 / Theorem 4(4)): measured write amplification of the three
// dictionary families under a random update stream.
//
// The B-tree rewrites a whole node per O(1) modified entries, so its
// amplification is Θ(B/entry) — linear in the node size, the paper's first
// explanation of why B-tree nodes stay small. The Bε-tree pays
// O(F·log_F(N/M)) and the leveled LSM pays O(growth · levels), both
// insensitive to node size. Amplification is measured from the simulated
// disk's byte counters, not modeled.

package experiments

import (
	"iomodels/internal/betree"
	"iomodels/internal/btree"
	"iomodels/internal/engine"
	"iomodels/internal/hdd"
	"iomodels/internal/lsm"
	"iomodels/internal/workload"
)

// WriteAmpConfig parameterizes E12.
type WriteAmpConfig struct {
	Items      int64
	CacheBytes int64
	NodeSizes  []int // sweep for the trees
	Fanout     int
	Profile    hdd.Profile
	Spec       workload.KeySpec
	Seed       uint64
}

// DefaultWriteAmpConfig is laptop-scale.
func DefaultWriteAmpConfig() WriteAmpConfig {
	return WriteAmpConfig{
		Items:      120_000,
		CacheBytes: 2 << 20,
		NodeSizes:  []int{64 << 10, 256 << 10, 1 << 20},
		Fanout:     betree.DefaultFanout,
		Profile:    hdd.DefaultProfile(),
		Spec:       workload.DefaultSpec(),
		Seed:       5,
	}
}

// WriteAmpRow is one measurement.
type WriteAmpRow struct {
	Structure string
	NodeBytes int
	WriteAmp  float64 // disk bytes written / logical bytes inserted
	ModelAmp  float64 // the Θ-bound evaluated with constants = 1 (shape only)
}

// WriteAmp measures write amplification across structures and node sizes.
func WriteAmp(cfg WriteAmpConfig) []WriteAmpRow {
	entry := float64(cfg.Spec.KeyBytes + cfg.Spec.ValueBytes + 8)
	var runs []func() WriteAmpRow
	for _, nb := range cfg.NodeSizes {
		runs = append(runs, func() WriteAmpRow {
			_, _, t := load(hdd.New(cfg.Profile, cfg.Seed), cfg.CacheBytes, bind(btree.New, bTree(cfg.Spec, nb)),
				func(t *btree.Tree) { workload.Load(t, cfg.Spec, cfg.Items) })
			return WriteAmpRow{Structure: "B-tree", NodeBytes: nb, WriteAmp: writeAmp(t), ModelAmp: float64(nb) / entry}
		}, func() WriteAmpRow {
			// Theorem 9 organization.
			_, _, t := load(hdd.New(cfg.Profile, cfg.Seed), cfg.CacheBytes, bind(betree.New, beTree(cfg.Spec, nb, cfg.Fanout).Optimized()),
				func(t *betree.Tree) {
					workload.Load(t, cfg.Spec, cfg.Items)
					t.Settle()
				})
			return WriteAmpRow{Structure: "Bε-tree", NodeBytes: nb, WriteAmp: writeAmp(t), ModelAmp: float64(cfg.Fanout) * float64(max(t.Height()-1, 1))}
		})
	}
	// LSM (node size not applicable; one row).
	return concurrently(append(runs, func() WriteAmpRow {
		lcfg := lsm.DefaultConfig()
		lcfg.MemtableBytes = int(cfg.CacheBytes / 4)
		_, _, t := load(hdd.New(cfg.Profile, cfg.Seed), cfg.CacheBytes, bind(lsm.New, lcfg),
			func(t *lsm.Tree) { workload.Load(t, cfg.Spec, cfg.Items) })
		return WriteAmpRow{Structure: "LSM-tree", NodeBytes: lcfg.SSTableBytes, WriteAmp: writeAmp(t), ModelAmp: float64(lcfg.GrowthFactor) * float64(t.Levels())}
	})...)
}

// writeAmp is a tree's device bytes written per byte it was handed.
func writeAmp(t engine.Tree) float64 {
	st := t.Stats()
	return float64(st.IO.BytesWritten) / float64(st.LogicalBytes)
}

// RenderWriteAmp formats E12.
func RenderWriteAmp(rows []WriteAmpRow) string {
	return renderRows("E12: write amplification under random inserts (B-tree ~Θ(B/entry); Bε-tree ~F·height; LSM ~growth·levels)", rows, []column[WriteAmpRow]{
		{"Structure", func(r WriteAmpRow) string { return r.Structure }},
		{"Node/SSTable", func(r WriteAmpRow) string { return humanBytes(r.NodeBytes) }},
		{"measured WA", func(r WriteAmpRow) string { return f2(r.WriteAmp) }},
		{"Θ-bound shape", func(r WriteAmpRow) string { return f2(r.ModelAmp) }},
	})
}

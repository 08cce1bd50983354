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
	"fmt"

	"iomodels/internal/betree"
	"iomodels/internal/btree"
	"iomodels/internal/engine"
	"iomodels/internal/hdd"
	"iomodels/internal/lsm"
	"iomodels/internal/sim"
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
	var rows []WriteAmpRow
	entry := float64(cfg.Spec.KeyBytes + cfg.Spec.ValueBytes + 8)
	for _, nb := range cfg.NodeSizes {
		// B-tree.
		{
			clk := sim.New()
			eng := engine.New(engine.Config{CacheBytes: cfg.CacheBytes}, hdd.New(cfg.Profile, cfg.Seed), clk)
			tree, err := btree.New(btree.Config{
				NodeBytes:     nb,
				MaxKeyBytes:   cfg.Spec.KeyBytes,
				MaxValueBytes: cfg.Spec.ValueBytes,
			}, eng)
			if err != nil {
				panic(fmt.Sprintf("experiments: writeamp btree: %v", err))
			}
			workload.Load(tree, cfg.Spec, cfg.Items)
			tree.Flush()
			c := eng.Counters()
			rows = append(rows, WriteAmpRow{
				Structure: "B-tree",
				NodeBytes: nb,
				WriteAmp:  float64(c.BytesWritten) / float64(tree.LogicalBytesInserted),
				ModelAmp:  float64(nb) / entry,
			})
		}
		// Bε-tree (Theorem 9 organization).
		{
			clk := sim.New()
			eng := engine.New(engine.Config{CacheBytes: cfg.CacheBytes}, hdd.New(cfg.Profile, cfg.Seed), clk)
			tree, err := betree.New(betree.Config{
				NodeBytes:     nb,
				MaxFanout:     cfg.Fanout,
				MaxKeyBytes:   cfg.Spec.KeyBytes,
				MaxValueBytes: cfg.Spec.ValueBytes,
			}.Optimized(), eng)
			if err != nil {
				panic(fmt.Sprintf("experiments: writeamp betree: %v", err))
			}
			workload.Load(tree, cfg.Spec, cfg.Items)
			tree.Settle()
			tree.Flush()
			c := eng.Counters()
			h := float64(tree.Height() - 1)
			if h < 1 {
				h = 1
			}
			rows = append(rows, WriteAmpRow{
				Structure: "Bε-tree",
				NodeBytes: nb,
				WriteAmp:  float64(c.BytesWritten) / float64(tree.LogicalBytesInserted),
				ModelAmp:  float64(cfg.Fanout) * h,
			})
		}
	}
	// LSM (node size not applicable; one row).
	{
		clk := sim.New()
		eng := engine.New(engine.Config{CacheBytes: cfg.CacheBytes}, hdd.New(cfg.Profile, cfg.Seed), clk)
		lcfg := lsm.DefaultConfig()
		lcfg.MemtableBytes = int(cfg.CacheBytes / 4)
		tree, err := lsm.New(lcfg, eng)
		if err != nil {
			panic(fmt.Sprintf("experiments: writeamp lsm: %v", err))
		}
		workload.Load(tree, cfg.Spec, cfg.Items)
		tree.Flush()
		c := eng.Counters()
		rows = append(rows, WriteAmpRow{
			Structure: "LSM-tree",
			NodeBytes: lcfg.SSTableBytes,
			WriteAmp:  float64(c.BytesWritten) / float64(tree.LogicalBytesInserted),
			ModelAmp:  float64(lcfg.GrowthFactor) * float64(tree.Levels()),
		})
	}
	return rows
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

// E16 (§5 aging claim): "as B-trees age, their nodes get spread out across
// disk, and range-query performance degrades. This is borne out in
// practice" (citing the authors' FAST'17 work). The experiment loads a
// dictionary in key order — leaves land sequentially on disk — measures
// range-scan cost, then ages the tree with random churn (delete + reinsert
// cycles that split, merge and reallocate nodes) and measures again. The
// ratio is the aging penalty.
//
// The comparison across structures is the point: the B-tree's small leaves
// scatter quickly, while the Bε-tree's large nodes keep enough locality
// per seek that aging hurts far less — one reason BetrFS resists aging.

package experiments

import (
	"fmt"

	"iomodels/internal/betree"
	"iomodels/internal/btree"
	"iomodels/internal/engine"
	"iomodels/internal/hdd"
	"iomodels/internal/sim"
	"iomodels/internal/stats"
	"iomodels/internal/workload"
)

// AgingConfig parameterizes E16.
type AgingConfig struct {
	Items      int64
	ChurnOps   int // delete+reinsert pairs
	ScanOps    int
	ScanLen    int
	NodeBytes  int // B-tree node size
	BeNodeView int // Bε-tree node size
	Fanout     int
	CacheBytes int64
	Profile    hdd.Profile
	Spec       workload.KeySpec
	Seed       uint64
}

// DefaultAgingConfig is laptop-scale.
func DefaultAgingConfig() AgingConfig {
	return AgingConfig{
		Items:      200_000,
		ChurnOps:   150_000,
		ScanOps:    20,
		ScanLen:    2000,
		NodeBytes:  16 << 10,
		BeNodeView: 1 << 20,
		Fanout:     betree.DefaultFanout,
		CacheBytes: 4 << 20,
		Profile:    hdd.DefaultProfile(),
		Spec:       workload.DefaultSpec(),
		Seed:       31,
	}
}

// AgingRow is one structure's before/after scan cost.
type AgingRow struct {
	Structure    string
	FreshUsItem  float64 // scan µs/item right after a sequential load
	AgedUsItem   float64 // scan µs/item after churn
	AgingPenalty float64 // aged / fresh
}

// agingDict is what the harness needs from a structure.
type agingDict interface {
	Put(key, value []byte)
	Scan(lo, hi []byte, fn func(k, v []byte) bool)
	Flush()
}

// Aging runs E16 for the B-tree and the Bε-tree.
func Aging(cfg AgingConfig) []AgingRow {
	var rows []AgingRow
	run := func(name string, mk func(eng *engine.Engine) (agingDict, func(key []byte))) {
		clk := sim.New()
		eng := engine.New(engine.Config{CacheBytes: cfg.CacheBytes}, hdd.New(cfg.Profile, cfg.Seed), clk)
		d, del := mk(eng)
		// Sequential load: ascending keys allocate leaves in disk order.
		for id := int64(0); id < cfg.Items; id++ {
			d.Put(cfg.Spec.SequentialKey(uint64(id)), cfg.Spec.Value(uint64(id)))
		}
		d.Flush()
		fresh := agingScan(clk, cfg, d)
		// Churn: random delete + reinsert cycles.
		rng := stats.NewRNG(cfg.Seed + 5)
		for i := 0; i < cfg.ChurnOps; i++ {
			id := uint64(rng.Int63n(cfg.Items))
			del(cfg.Spec.SequentialKey(id))
			d.Put(cfg.Spec.SequentialKey(id), cfg.Spec.Value(id))
		}
		d.Flush()
		aged := agingScan(clk, cfg, d)
		rows = append(rows, AgingRow{
			Structure:    name,
			FreshUsItem:  fresh,
			AgedUsItem:   aged,
			AgingPenalty: aged / fresh,
		})
	}
	run(fmt.Sprintf("B-tree (%s nodes)", humanBytes(cfg.NodeBytes)), func(eng *engine.Engine) (agingDict, func(key []byte)) {
		t, err := btree.New(btree.Config{
			NodeBytes:     cfg.NodeBytes,
			MaxKeyBytes:   cfg.Spec.KeyBytes,
			MaxValueBytes: cfg.Spec.ValueBytes,
		}, eng)
		if err != nil {
			panic(fmt.Sprintf("experiments: aging btree: %v", err))
		}
		return t, func(k []byte) { t.Delete(k) }
	})
	run(fmt.Sprintf("Bε-tree (%s nodes)", humanBytes(cfg.BeNodeView)), func(eng *engine.Engine) (agingDict, func(key []byte)) {
		t, err := betree.New(betree.Config{
			NodeBytes:     cfg.BeNodeView,
			MaxFanout:     cfg.Fanout,
			MaxKeyBytes:   cfg.Spec.KeyBytes,
			MaxValueBytes: cfg.Spec.ValueBytes,
		}.Optimized(), eng)
		if err != nil {
			panic(fmt.Sprintf("experiments: aging betree: %v", err))
		}
		return t, func(k []byte) { t.Delete(k) }
	})
	return rows
}

// agingScan measures scan cost per item from cold cache.
func agingScan(clk *sim.Engine, cfg AgingConfig, d agingDict) float64 {
	rng := stats.NewRNG(cfg.Seed + 9)
	start := clk.Now()
	for i := 0; i < cfg.ScanOps; i++ {
		id := uint64(rng.Int63n(cfg.Items - int64(cfg.ScanLen)))
		count := 0
		d.Scan(cfg.Spec.SequentialKey(id), nil, func(k, v []byte) bool {
			count++
			return count < cfg.ScanLen
		})
	}
	total := float64(cfg.ScanOps * cfg.ScanLen)
	return (clk.Now() - start).Milliseconds() * 1000 / total
}

// RenderAging formats E16.
func RenderAging(rows []AgingRow) string {
	return renderRows("E16 (§5 aging): sequential-load scan cost vs after random churn (penalty = aged/fresh)", rows, []column[AgingRow]{
		{"Structure", func(r AgingRow) string { return r.Structure }},
		{"fresh µs/item", func(r AgingRow) string { return f2(r.FreshUsItem) }},
		{"aged µs/item", func(r AgingRow) string { return f2(r.AgedUsItem) }},
		{"penalty", func(r AgingRow) string { return f2(r.AgingPenalty) }},
	})
}

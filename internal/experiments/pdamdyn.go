// E9-dynamic (Lemma 13 / §8, extended): concurrent query throughput of the
// REAL dictionaries — the disk-backed B-tree and Bε-tree — on the abstract
// PDAM device, rather than the static vEB search trees of the original
// experiment.
//
// k clients run random membership queries against a pre-loaded tree through
// the shared storage engine: each client is a sim process with its own
// virtual timeline, so its block fetches overlap with other clients' on the
// device's P IO slots per step. Lemma 13's shape must reproduce with a
// dynamic dictionary: aggregate throughput grows ~linearly in k until the
// device saturates at ~P/h queries per step (h = dependent IOs per query),
// and never decreases.

package experiments

import (
	"fmt"

	"iomodels/internal/betree"
	"iomodels/internal/btree"
	"iomodels/internal/engine"
	"iomodels/internal/pdamdev"
	"iomodels/internal/sim"
	"iomodels/internal/stats"
	"iomodels/internal/workload"
)

// Lemma13DynamicConfig parameterizes the dynamic-dictionary E9 extension.
type Lemma13DynamicConfig struct {
	Items            int64
	P                int      // device parallelism (IO slots per step)
	BlockBytes       int64    // B, the PDAM IO size
	StepTime         sim.Time // wall-clock length of one step
	BTreeNodeBlocks  int      // B-tree node size in blocks
	BeTreeNodeBlocks int      // Bε-tree node size in blocks
	CacheBytes       int64    // engine budget (keep << data so queries hit disk)
	QueriesPerClient int
	Clients          []int // k values
	Spec             workload.KeySpec
	Seed             uint64
}

// DefaultLemma13DynamicConfig is laptop-scale but IO-bound.
func DefaultLemma13DynamicConfig() Lemma13DynamicConfig {
	return Lemma13DynamicConfig{
		Items:            120_000,
		P:                16,
		BlockBytes:       4 << 10,
		StepTime:         sim.Millisecond,
		BTreeNodeBlocks:  1,
		BeTreeNodeBlocks: 16,
		CacheBytes:       1 << 20,
		QueriesPerClient: 150,
		Clients:          []int{1, 2, 4, 8, 16},
		Spec:             workload.DefaultSpec(),
		Seed:             17,
	}
}

// Lemma13DynamicRow is one (structure, clients) measurement.
type Lemma13DynamicRow struct {
	Tree          string
	Clients       int
	StepsPerQuery float64 // per-client latency in steps
	Throughput    float64 // queries per step, all clients combined
	HitRatio      float64 // pager hit ratio during the round
}

// dynTree builds one dictionary on an engine and hands out per-client
// sessions.
type dynTree struct {
	name  string
	build func(eng *engine.Engine) func(c *engine.Client) engine.Dictionary
}

func (cfg Lemma13DynamicConfig) trees() []dynTree {
	return []dynTree{
		{
			name: "B-tree",
			build: func(eng *engine.Engine) func(c *engine.Client) engine.Dictionary {
				tree, err := btree.New(btree.Config{
					NodeBytes:     cfg.BTreeNodeBlocks * int(cfg.BlockBytes),
					MaxKeyBytes:   cfg.Spec.KeyBytes,
					MaxValueBytes: cfg.Spec.ValueBytes,
				}, eng)
				if err != nil {
					panic(fmt.Sprintf("experiments: lemma13 dynamic btree: %v", err))
				}
				workload.Load(tree, cfg.Spec, cfg.Items)
				tree.Flush()
				return func(c *engine.Client) engine.Dictionary { return tree.Session(c) }
			},
		},
		{
			name: "Bε-tree",
			build: func(eng *engine.Engine) func(c *engine.Client) engine.Dictionary {
				tree, err := betree.New(betree.Config{
					NodeBytes:     cfg.BeTreeNodeBlocks * int(cfg.BlockBytes),
					MaxFanout:     betree.DefaultFanout,
					MaxKeyBytes:   cfg.Spec.KeyBytes,
					MaxValueBytes: cfg.Spec.ValueBytes,
				}.Optimized(), eng)
				if err != nil {
					panic(fmt.Sprintf("experiments: lemma13 dynamic betree: %v", err))
				}
				workload.Load(tree, cfg.Spec, cfg.Items)
				tree.Settle()
				tree.Flush()
				return func(c *engine.Client) engine.Dictionary { return tree.Session(c) }
			},
		},
	}
}

// Lemma13Dynamic runs the extended E9 and returns rows grouped by structure
// then clients.
func Lemma13Dynamic(cfg Lemma13DynamicConfig) []Lemma13DynamicRow {
	var rows []Lemma13DynamicRow
	for _, tr := range cfg.trees() {
		clk := sim.New()
		dev := pdamdev.New(cfg.P, cfg.BlockBytes, cfg.StepTime)
		eng := engine.New(engine.Config{CacheBytes: cfg.CacheBytes},
			dev.Storage(1<<31), clk)
		session := tr.build(eng)
		for _, k := range cfg.Clients {
			steps := runDynamicRound(clk, eng, session, cfg, k)
			total := float64(k * cfg.QueriesPerClient)
			rows = append(rows, Lemma13DynamicRow{
				Tree:          tr.name,
				Clients:       k,
				StepsPerQuery: steps / float64(cfg.QueriesPerClient),
				Throughput:    total / steps,
				HitRatio:      eng.Pager().Stats().HitRatio(),
			})
		}
	}
	return rows
}

// runDynamicRound cold-starts the cache and measures how many time steps k
// concurrent clients need for their queries.
func runDynamicRound(clk *sim.Engine, eng *engine.Engine,
	session func(c *engine.Client) engine.Dictionary, cfg Lemma13DynamicConfig, k int) float64 {
	eng.Pager().EvictAll(eng.Owner())
	eng.Pager().ResetStats()
	root := stats.NewRNG(cfg.Seed + uint64(k))
	start := clk.Now()
	for c := 0; c < k; c++ {
		rng := root.Split(uint64(c))
		clk.Go(func(pr *sim.Proc) {
			s := session(eng.Process(pr))
			for q := 0; q < cfg.QueriesPerClient; q++ {
				id := uint64(rng.Int63n(cfg.Items))
				if _, ok := s.Get(cfg.Spec.Key(id)); !ok {
					panic("experiments: lemma13 dynamic lost a key")
				}
			}
		})
	}
	clk.Run()
	return float64(clk.Now()-start) / float64(cfg.StepTime)
}

// RenderLemma13Dynamic formats the extended E9 as a throughput table, one
// row per client count, one column group per structure.
func RenderLemma13Dynamic(rows []Lemma13DynamicRow) string {
	at := map[string]map[int]Lemma13DynamicRow{}
	cols := []column[int]{{"clients k", intStr}}
	for _, r := range rows {
		tr := r.Tree
		if at[tr] == nil {
			at[tr] = map[int]Lemma13DynamicRow{}
			cols = append(cols,
				column[int]{tr + " q/step", func(k int) string { return f3(at[tr][k].Throughput) }},
				column[int]{tr + " steps/q", func(k int) string { return f2(at[tr][k].StepsPerQuery) }},
				column[int]{tr + " hit%", func(k int) string { return f2(at[tr][k].HitRatio * 100) }})
		}
		at[tr][r.Clients] = r
	}
	return renderRows("E9-dynamic (Lemma 13 on real dictionaries): query throughput vs concurrency — saturation ∝ PB",
		clientCounts(rows, func(r Lemma13DynamicRow) int { return r.Clients }), cols)
}

// E14 (design-choice ablation): why the Bε-tree flushes the child with the
// most pending messages.
//
// The paper's flush rule — "typically v is chosen to be the child with the
// most pending messages" — maximizes the bytes moved per node rewrite. This
// experiment ablates it against a round-robin victim under uniform and
// Zipf-skewed insert streams: under skew the fullest-child rule moves big
// batches toward hot subtrees and does markedly fewer flushes (and IOs) per
// insert.

package experiments

import (
	"fmt"

	"iomodels/internal/betree"
	"iomodels/internal/engine"
	"iomodels/internal/hdd"
	"iomodels/internal/sim"
	"iomodels/internal/stats"
	"iomodels/internal/workload"
)

// FlushPolicyConfig parameterizes E14.
type FlushPolicyConfig struct {
	Items      int64 // preload
	Ops        int   // measured upsert stream
	KeySpace   int64 // upsert keys drawn from [0, KeySpace)
	Theta      float64
	NodeBytes  int
	Fanout     int
	CacheBytes int64
	Profile    hdd.Profile
	Spec       workload.KeySpec
	Seed       uint64
}

// DefaultFlushPolicyConfig is laptop-scale.
func DefaultFlushPolicyConfig() FlushPolicyConfig {
	return FlushPolicyConfig{
		Items:      150_000,
		Ops:        60_000,
		KeySpace:   150_000,
		Theta:      0.9,
		NodeBytes:  256 << 10,
		Fanout:     betree.DefaultFanout,
		CacheBytes: 2 << 20,
		Profile:    hdd.DefaultProfile(),
		Spec:       workload.DefaultSpec(),
		Seed:       21,
	}
}

// FlushPolicyRow is one (policy, skew) measurement.
type FlushPolicyRow struct {
	Policy   betree.FlushPolicy
	Skewed   bool
	InsertMs float64
	Flushes  float64 // per thousand inserts
}

// FlushPolicyAblation runs E14: both policies under uniform and skewed
// upsert streams.
func FlushPolicyAblation(cfg FlushPolicyConfig) []FlushPolicyRow {
	var rows []FlushPolicyRow
	for _, skewed := range []bool{false, true} {
		for _, policy := range []betree.FlushPolicy{betree.FlushFullest, betree.FlushRoundRobin} {
			clk := sim.New()
			eng := engine.New(engine.Config{CacheBytes: cfg.CacheBytes}, hdd.New(cfg.Profile, cfg.Seed), clk)
			bcfg := betree.Config{
				NodeBytes:     cfg.NodeBytes,
				MaxFanout:     cfg.Fanout,
				MaxKeyBytes:   cfg.Spec.KeyBytes,
				MaxValueBytes: cfg.Spec.ValueBytes,
				FlushPolicy:   policy,
			}.Optimized()
			bcfg.FlushPolicy = policy // Optimized() must not reset it
			tree, err := betree.New(bcfg, eng)
			if err != nil {
				panic(fmt.Sprintf("experiments: flush policy: %v", err))
			}
			workload.Load(tree, cfg.Spec, cfg.Items)
			tree.Flush()

			rng := stats.NewRNG(cfg.Seed + 7)
			var zipf *stats.Zipf
			if skewed {
				zipf = stats.NewZipf(cfg.KeySpace, cfg.Theta)
			}
			flushesBefore := tree.Flushes
			ms := measurePhase(clk, cfg.Ops, func(i int) {
				var id uint64
				if zipf != nil {
					id = uint64(zipf.Next(rng))
				} else {
					id = uint64(rng.Int63n(cfg.KeySpace))
				}
				tree.Upsert(cfg.Spec.Key(id), 1)
			}, tree.Flush)
			rows = append(rows, FlushPolicyRow{
				Policy:   policy,
				Skewed:   skewed,
				InsertMs: ms,
				Flushes:  float64(tree.Flushes-flushesBefore) / float64(cfg.Ops) * 1000,
			})
		}
	}
	return rows
}

// RenderFlushPolicy formats E14.
func RenderFlushPolicy(rows []FlushPolicyRow) string {
	return renderRows("E14 (flush-policy ablation): fullest-child flushing moves more bytes per rewrite", rows, []column[FlushPolicyRow]{
		{"Policy", func(r FlushPolicyRow) string { return r.Policy.String() }},
		{"keys", func(r FlushPolicyRow) string { return map[bool]string{false: "uniform", true: "zipf"}[r.Skewed] }},
		{"upsert ms/op", func(r FlushPolicyRow) string { return f3(r.InsertMs) }},
		{"flushes/kop", func(r FlushPolicyRow) string { return f2(r.Flushes) }},
	})
}

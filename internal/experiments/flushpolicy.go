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
	"iomodels/internal/betree"
	"iomodels/internal/hdd"
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
	var runs []FlushPolicyRow
	for _, skewed := range []bool{false, true} {
		for _, policy := range []betree.FlushPolicy{betree.FlushFullest, betree.FlushRoundRobin} {
			runs = append(runs, FlushPolicyRow{Policy: policy, Skewed: skewed})
		}
	}
	return sweep(runs, func(row FlushPolicyRow) FlushPolicyRow {
		bcfg := beTree(cfg.Spec, cfg.NodeBytes, cfg.Fanout).Optimized()
		bcfg.FlushPolicy = row.Policy
		clk, _, tree := load(hdd.New(cfg.Profile, cfg.Seed), cfg.CacheBytes, bind(betree.New, bcfg),
			func(t *betree.Tree) { workload.Load(t, cfg.Spec, cfg.Items) })
		rng := stats.NewRNG(cfg.Seed + 7)
		var zipf *stats.Zipf
		if row.Skewed {
			zipf = stats.NewZipf(cfg.KeySpace, cfg.Theta)
		}
		flushesBefore := tree.Flushes
		row.InsertMs = measurePhase(clk, cfg.Ops, func(i int) {
			var id uint64
			if zipf != nil {
				id = uint64(zipf.Next(rng))
			} else {
				id = uint64(rng.Int63n(cfg.KeySpace))
			}
			tree.Upsert(cfg.Spec.Key(id), 1)
		}, tree.Flush)
		row.Flushes = float64(tree.Flushes-flushesBefore) / float64(cfg.Ops) * 1000
		return row
	})
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

// E9 (Lemma 13 / §8): concurrent query throughput of the three PDAM
// search-tree designs as the number of clients varies.
//
// k clients run random membership queries against a static tree on the
// abstract PDAM device (Definition 1). Each client gets r = P/k blocks of
// contiguous read-ahead per fetch, as §8's prefetching discussion
// prescribes. Lemma 13 predicts the vEB design matches one-block nodes at
// k = P and whole-node fetch at k = 1 — optimal at both extremes without
// knowing k.

package experiments

import (
	"slices"
	"sort"

	"iomodels/internal/pdamdev"
	"iomodels/internal/sim"
	"iomodels/internal/stats"
	"iomodels/internal/veb"
)

// Lemma13Config parameterizes E9.
type Lemma13Config struct {
	Items            int // keys in the tree
	BlockEntries     int // B in entries
	P                int // device parallelism
	QueriesPerClient int
	Clients          []int // k values (each must divide P for exact r)
	Seed             uint64
}

// DefaultLemma13Config is laptop-scale but deep enough to separate designs.
func DefaultLemma13Config() Lemma13Config {
	return Lemma13Config{
		Items:            1 << 20,
		BlockEntries:     16,
		P:                16,
		QueriesPerClient: 200,
		Clients:          []int{1, 2, 4, 8, 16},
		Seed:             11,
	}
}

// Lemma13Row is one (design, clients) measurement.
type Lemma13Row struct {
	Design        veb.Design
	Clients       int
	StepsPerQuery float64
	Throughput    float64 // queries per time step, all clients combined
}

// pdamFetcher adapts a sim process + PDAM device to veb.Fetcher.
type pdamFetcher struct {
	dev *pdamdev.Device
	pr  *sim.Proc
}

func (f *pdamFetcher) Fetch(block int64, count int) {
	done := f.dev.Submit(f.pr.Now(), count)
	f.pr.SleepUntil(done)
}

// Lemma13 runs E9 and returns rows grouped by design then clients.
func Lemma13(cfg Lemma13Config) []Lemma13Row {
	keys := randomKeys(cfg.Items, cfg.Seed)
	var rows []Lemma13Row
	for _, design := range []veb.Design{veb.BlockNodes, veb.WholeNodeFetch, veb.VEBNodes} {
		nodeBlocks := cfg.P
		if design == veb.BlockNodes {
			nodeBlocks = 1
		}
		tree := veb.Build(veb.Config{
			BlockEntries: cfg.BlockEntries,
			NodeBlocks:   nodeBlocks,
			Design:       design,
		}, keys)
		for _, k := range cfg.Clients {
			steps := runLemma13Round(tree, keys, cfg, k)
			totalQueries := float64(k * cfg.QueriesPerClient)
			rows = append(rows, Lemma13Row{
				Design:        design,
				Clients:       k,
				StepsPerQuery: steps / float64(cfg.QueriesPerClient),
				Throughput:    totalQueries / steps,
			})
		}
	}
	return rows
}

// runLemma13Round returns the number of time steps k clients need for their
// queries.
func runLemma13Round(tree *veb.Tree, keys []uint64, cfg Lemma13Config, k int) float64 {
	eng := sim.New()
	dev := pdamdev.New(cfg.P, int64(cfg.BlockEntries)*16, sim.Millisecond)
	readAhead := cfg.P / k
	if readAhead < 1 {
		readAhead = 1
	}
	root := stats.NewRNG(cfg.Seed + uint64(k))
	var last sim.Time
	for c := 0; c < k; c++ {
		rng := root.Split(uint64(c))
		eng.Go(func(pr *sim.Proc) {
			f := &pdamFetcher{dev: dev, pr: pr}
			for q := 0; q < cfg.QueriesPerClient; q++ {
				key := keys[rng.Intn(len(keys))]
				if !tree.Contains(key, readAhead, f) {
					panic("experiments: lemma13 lost a key")
				}
			}
			if pr.Now() > last {
				last = pr.Now()
			}
		})
	}
	eng.Run()
	return last.Seconds() / sim.Millisecond.Seconds()
}

// RenderLemma13 formats E9 as a throughput table, one row per client count,
// one column pair per design.
func RenderLemma13(rows []Lemma13Row) string {
	at := map[veb.Design]map[int]Lemma13Row{}
	for _, r := range rows {
		if at[r.Design] == nil {
			at[r.Design] = map[int]Lemma13Row{}
		}
		at[r.Design][r.Clients] = r
	}
	cols := []column[int]{{"clients k", intStr}}
	for _, d := range []veb.Design{veb.BlockNodes, veb.WholeNodeFetch, veb.VEBNodes} {
		cols = append(cols,
			column[int]{d.String() + " q/step", func(k int) string { return f3(at[d][k].Throughput) }},
			column[int]{d.String() + " steps/q", func(k int) string { return f2(at[d][k].StepsPerQuery) }})
	}
	return renderRows("E9 (Lemma 13): query throughput vs concurrency — vEB PB-nodes track the best design at every k",
		clientCounts(rows, func(r Lemma13Row) int { return r.Clients }), cols)
}

// clientCounts returns the distinct client counts of rows in ascending
// order: the row keys of a throughput-vs-concurrency table.
func clientCounts[R any](rows []R, clients func(R) int) []int {
	var ks []int
	for _, r := range rows {
		if k := clients(r); !slices.Contains(ks, k) {
			ks = append(ks, k)
		}
	}
	slices.Sort(ks)
	return ks
}

func randomKeys(n int, seed uint64) []uint64 {
	rng := stats.NewRNG(seed)
	set := make(map[uint64]bool, n)
	for len(set) < n {
		set[rng.Uint64()] = true
	}
	keys := make([]uint64, 0, n)
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

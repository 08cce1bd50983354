// The tree harness: every experiment that runs a tree on a simulated disk
// (E5, E6, E9-dynamic, E11, E12, E14, E15, E16, E18, E19) builds, loads and
// times it here.
//
// A tree experiment starts with load: a device, an engine with the
// experiment's cache budget (assemble, the package's one engine assembly),
// the tree, its keys, and the Flush that writes them back. The node-size
// family then takes one point measurement (measure): random Gets, Puts of
// new keys closed by their Flush, and range scans, in that order, on key
// sequences every point shares. Each point builds its own device, engine and
// clock, so a sweep runs its points concurrently and returns them in config
// order; virtual time is the same as run one by one.

package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"iomodels/internal/betree"
	"iomodels/internal/btree"
	"iomodels/internal/engine"
	"iomodels/internal/sim"
	"iomodels/internal/storage"
	"iomodels/internal/workload"
)

// assemble builds an engine over store, with a cacheBytes budget and a
// clock of its own.
func assemble(store storage.ByteStore, cacheBytes int64) (*sim.Engine, *engine.Engine) {
	clk := sim.New()
	return clk, engine.FromStore(engine.Config{CacheBytes: cacheBytes}, store, clk)
}

// bind fixes a tree constructor's config: the form load takes a tree in.
func bind[C any, T engine.Tree](newTree func(C, *engine.Engine) (T, error), cfg C) func(*engine.Engine) (T, error) {
	return func(e *engine.Engine) (T, error) { return newTree(cfg, e) }
}

// bTree is the B-tree config at nodeBytes for spec's pairs.
func bTree(spec workload.KeySpec, nodeBytes int) btree.Config {
	return btree.Config{NodeBytes: nodeBytes, MaxKeyBytes: spec.KeyBytes, MaxValueBytes: spec.ValueBytes}
}

// beTree is the Bε-tree config at nodeBytes and fanout for spec's pairs, in
// the baseline organization (Optimized() gives Theorem 9's).
func beTree(spec workload.KeySpec, nodeBytes, fanout int) betree.Config {
	return betree.Config{NodeBytes: nodeBytes, MaxFanout: fanout, MaxKeyBytes: spec.KeyBytes, MaxValueBytes: spec.ValueBytes}
}

// load is the build-and-load step: assemble an engine over a fresh store on
// dev, build the tree, fill it (its keys, and whatever must precede the
// Flush, such as a Bε-tree's Settle), Flush, and zero the pager's counters
// so the phases that follow read only their own traffic.
func load[T engine.Tree](dev storage.Device, cacheBytes int64, newTree func(*engine.Engine) (T, error), fill func(T)) (*sim.Engine, *engine.Engine, T) {
	clk, eng := assemble(storage.NewStore(dev), cacheBytes)
	tree, err := newTree(eng)
	if err != nil {
		panic(fmt.Sprintf("experiments: %T: %v", tree, err))
	}
	fill(tree)
	tree.Flush()
	eng.Pager().ResetStats()
	return clk, eng, tree
}

// measure is the point measurement: load cfg.Items keys into the tree on
// cfg's device, then time cfg.QueryOps Gets of loaded keys, cfg.InsertOps
// Puts of new ones closed by the Flush that writes them back, and
// cfg.ScanOps scans. It fills every field but the node size and the model's.
func measure[T engine.Tree](cfg NodeSizeConfig, newTree func(*engine.Engine) (T, error)) (NodeSizePoint, T) {
	clk, eng, tree := load(cfg.makeDevice(), cfg.CacheBytes, newTree, func(t T) { workload.Load(t, cfg.Spec, cfg.Items) })
	var p NodeSizePoint
	p.QueryMs = measurePhase(clk, cfg.QueryOps, func(i int) {
		id := uint64(int64(i*2654435761) % cfg.Items)
		tree.Get(cfg.Spec.Key(id))
	}, nil)
	p.InsertMs = measurePhase(clk, cfg.InsertOps, func(i int) {
		id := uint64(cfg.Items + int64(i))
		tree.Put(cfg.Spec.Key(id), cfg.Spec.Value(id))
	}, tree.Flush)
	p.ScanUsItem = measureScans(clk, cfg, tree)
	p.Pager = eng.Pager().Stats()
	return p, tree
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

// measureScans runs cfg.ScanOps range queries of cfg.ScanLen items and
// returns virtual microseconds per item returned (0 if scans disabled).
func measureScans(clk *sim.Engine, cfg NodeSizeConfig, d engine.Dictionary) float64 {
	if cfg.ScanOps <= 0 || cfg.ScanLen <= 0 {
		return 0
	}
	start := clk.Now()
	for i := 0; i < cfg.ScanOps; i++ {
		id := uint64(int64(i*7919) % cfg.Items)
		count := 0
		d.Scan(cfg.Spec.Key(id), nil, func(k, v []byte) bool {
			count++
			return count < cfg.ScanLen
		})
	}
	total := float64(cfg.ScanOps * cfg.ScanLen)
	return (clk.Now() - start).Milliseconds() * 1000 / total
}

// sweep runs point on every config, at most GOMAXPROCS at a time, and
// returns the results in config order. Points must share nothing mutable:
// each builds its own device, engine and clock.
func sweep[C, R any](configs []C, point func(C) R) []R {
	out := make([]R, len(configs))
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, c := range configs {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer func() { <-slots; wg.Done() }()
			out[i] = point(c)
		}()
	}
	wg.Wait()
	return out
}

// concurrently runs each of runs as one point of a sweep.
func concurrently[R any](runs ...func() R) []R {
	return sweep(runs, func(run func() R) R { return run() })
}

package main

// Group C, the ladder: each layer's exported call in isolation — in-process,
// one goroutine, testing.Benchmark around the call — plus round trips
// against a spawned kvserve and a primary/replica pair. Timings are the
// median of five measurements; _allocs are allocations per op; _ios are
// device IOs per op and repeat exactly.
//
// The rungs are shared out over the four workloads' traced runs (registry:
// metricDef.On), each workload taking the layers that work for it, so that
// no single run has to climb the whole ladder.

import (
	"errors"
	"flag"
	"fmt"
	"sync"
	"testing"
	"time"

	"iomodels/internal/betree"
	"iomodels/internal/btree"
	"iomodels/internal/cluster"
	"iomodels/internal/cobtree"
	"iomodels/internal/engine"
	"iomodels/internal/hdd"
	"iomodels/internal/kv"
	"iomodels/internal/lsm"
	"iomodels/internal/mqssd"
	"iomodels/internal/pdamdev"
	"iomodels/internal/server"
	"iomodels/internal/sim"
	"iomodels/internal/ssd"
	"iomodels/internal/stats"
	"iomodels/internal/storage"
	"iomodels/internal/veb"
	"iomodels/internal/wal"
	"iomodels/internal/workload"
)

const (
	// ladderBenchtime is how long testing.Benchmark runs each of a rung's
	// five measurements: long enough for tens of thousands of iterations of
	// the sub-microsecond calls, short enough that ~60 rungs fit in the
	// traced runs' time budget.
	ladderBenchtime = "40ms"
	ladderReps      = 5
	ladderItems     = 20000 // keys loaded into a dictionary under test
	pageBytes       = 4 << 10
	rttSamples      = 300 // round trips per spawned-server rung
)

var ladderInit sync.Once

// runLadder measures the rungs assigned to workload's traced run.
func runLadder(env *benchEnv, workload string, res *runResult) error {
	var initErr error
	ladderInit.Do(func() {
		testing.Init() // registers test.benchtime on the default flag set
		initErr = flag.Set("test.benchtime", ladderBenchtime)
	})
	if initErr != nil {
		return initErr
	}
	switch workload {
	case wlGetHot:
		ladderCodec(res)
		if err := ladderDict(res, "btree"); err != nil {
			return err
		}
		return ladderServerReads(env, res)
	case wlGetCold:
		ladderDevices(res)
		ladderPager(res)
	case wlMixed:
		if err := ladderWAL(res); err != nil {
			return err
		}
		if err := ladderDurability(res); err != nil {
			return err
		}
		if err := ladderServerWrites(env, res); err != nil {
			return err
		}
		return ladderCluster(env, res)
	case wlEmbedded:
		res.set("hdd.meter_ns", meterNs(hdd.NewDeterministic(hdd.DefaultProfile())))
		for _, d := range []string{"betree", "lsm", "cobtree"} {
			if err := ladderDict(res, d); err != nil {
				return err
			}
		}
		ladderVEB(res)
	}
	return nil
}

// ---- measuring helpers -----------------------------------------------------

// medianOf returns the median of ladderReps calls of f.
func medianOf(f func() float64) float64 {
	vals := make([]float64, ladderReps)
	for i := range vals {
		vals[i] = f()
	}
	return median(vals)
}

// benchNs is the median ns/op of fn under testing.Benchmark.
func benchNs(fn func(b *testing.B)) float64 {
	return medianOf(func() float64 {
		r := testing.Benchmark(fn)
		return float64(r.T.Nanoseconds()) / float64(r.N)
	})
}

// benchAllocs is fn's allocations per op.
func benchAllocs(fn func(b *testing.B)) float64 {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	return float64(r.MemAllocs) / float64(r.N)
}

// timeMs is the wall time of f in milliseconds.
func timeMs(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0)) / 1e6
}

// sink keeps measured calls from being optimised away.
var sink interface{}

func pdamStorage() *pdamdev.Storage {
	return pdamdev.New(16, pageBytes, sim.Millisecond).Storage(4 << 30)
}

// ---- kv, stats, workload ---------------------------------------------------

func ladderCodec(res *runResult) {
	spec := workload.DefaultSpec()
	key, value := spec.Key(7), spec.Value(7)
	// A Put request's payload: op byte, key, value.
	enc := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var e kv.Enc
			e.U8(3)
			e.Bytes(key)
			e.Bytes(value)
			sink = e.Buf
		}
	}
	res.set("kv.enc_ns", benchNs(enc))
	res.set("kv.enc_allocs", benchAllocs(enc))
	var e kv.Enc
	e.U8(3)
	e.Bytes(key)
	e.Bytes(value)
	res.set("kv.dec_ns", benchNs(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := kv.Dec{Buf: e.Buf}
			d.U8()
			d.Bytes()
			sink = d.Bytes()
		}
	}))
	h := stats.NewLatencyHist()
	res.set("stats.observe_ns", benchNs(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i%4096) * 997)
		}
	}))
	// The generator of the server workloads: uniform keys, Get/Put mix.
	stream := workload.NewStream(spec, 1, 100000, workload.Mix{Gets: 50, Puts: 50}, 0)
	res.set("workload.next_ns", benchNs(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = stream.Next()
		}
	}))
}

// ---- devices and storage ---------------------------------------------------

// meterNs is one 4 KiB random read through Store.Meter, the probe the
// enginebypass analyzer sanctions: the device model's own host cost.
func meterNs(dev storage.Device) float64 {
	store := storage.NewStore(dev)
	rng := stats.NewRNG(1)
	var now sim.Time
	return benchNs(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			off := rng.Int63n(1<<18) * pageBytes // within the first GiB
			now = store.Meter(now, storage.Read, off, pageBytes)
		}
	})
}

func ladderDevices(res *runResult) {
	res.set("pdamdev.meter_ns", meterNs(pdamStorage()))
	res.set("mqssd.meter_ns", meterNs(mqssd.New(mqssd.DefaultConfig()).Storage(4<<30)))
	res.set("ssd.meter_ns", meterNs(ssd.New(ssd.DefaultProfile())))

	// Byte-moving IO through the engine's client, as the pager issues it.
	eng := engine.New(engine.Config{CacheBytes: 1 << 20}, pdamStorage(), sim.New())
	c := eng.Owner()
	buf := make([]byte, pageBytes)
	const region = 16384 // pages: 64 MiB, written before it is read
	page := int64(0)
	res.set("storage.write4k_ns", benchNs(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.WriteAt(buf, page%region*pageBytes)
			page++
		}
	}))
	c.WriteAt(buf, (region-1)*pageBytes)
	res.set("storage.read4k_ns", benchNs(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.ReadAt(buf, page%region*pageBytes)
			page += 7919
		}
	}))
}

// ---- pager -----------------------------------------------------------------

// pageLoader is the smallest engine.Loader: a page is pageBytes on disk.
type pageLoader struct{ buf []byte }

func (l *pageLoader) Load(c *engine.Client, id engine.PageID) (interface{}, int64) {
	c.ReadAt(l.buf, int64(id))
	return l, pageBytes
}

func (l *pageLoader) Store(c *engine.Client, id engine.PageID, _ interface{}) {
	c.WriteAt(l.buf, int64(id))
}

func allocPages(eng *engine.Engine, n int) []engine.PageID {
	ids := make([]engine.PageID, n)
	for i := range ids {
		ids[i] = engine.PageID(eng.Alloc(pageBytes))
	}
	return ids
}

// dirtyAgain marks every page dirty for a rung's next measurement.
func dirtyAgain(p *engine.Pager, c *engine.Client, loader engine.Loader, ids []engine.PageID) {
	for _, id := range ids {
		p.Get(c, loader, id)
		p.MarkDirty(c, id, pageBytes)
		p.Unpin(c, id)
	}
}

func ladderPager(res *runResult) {
	loader := &pageLoader{buf: make([]byte, pageBytes)}

	// Hit: the page is resident. Miss: 4096 pages cycle through room for 256,
	// so every Get loads and evicts (clean pages: no write-back).
	for _, rung := range []struct {
		name  string
		cache int64
		pages int
	}{
		{"engine.pager_hit_ns", 64 << 20, 1024},
		{"engine.pager_miss_ns", 1 << 20, 4096},
	} {
		eng := engine.New(engine.Config{CacheBytes: rung.cache}, pdamStorage(), sim.New())
		c, p := eng.Owner(), eng.Pager()
		ids := allocPages(eng, rung.pages)
		for _, id := range ids {
			p.Get(c, loader, id)
			p.Unpin(c, id)
		}
		next := 0
		res.set(rung.name, benchNs(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				id := ids[next%len(ids)]
				next++
				sink = p.Get(c, loader, id)
				p.Unpin(c, id)
			}
		}))
	}

	// Flush of n dirty pages, per page, in kvserve's default cache geometry.
	// The two sizes' ratio exposes the victim scan's growth with the dirty set.
	for _, rung := range []struct {
		name  string
		pages int
	}{
		{"engine.pager_flush_us_per_page_1k", 1024},
		{"engine.pager_flush_us_per_page_8k", 8192},
	} {
		eng := engine.New(engine.Config{CacheBytes: 64 << 20}, pdamStorage(), sim.New())
		c, p := eng.Owner(), eng.Pager()
		ids := allocPages(eng, rung.pages)
		for _, id := range ids {
			p.Put(c, loader, id, loader, pageBytes)
			p.Unpin(c, id)
		}
		res.set(rung.name, medianOf(func() float64 {
			ms := timeMs(func() { p.Flush(c) })
			dirtyAgain(p, c, loader, ids)
			return ms * 1e3 / float64(rung.pages)
		}))
	}
}

// ---- WAL -------------------------------------------------------------------

func ladderWAL(res *runResult) error {
	spec := workload.DefaultSpec()
	eng := engine.New(engine.Config{CacheBytes: 1 << 20}, pdamStorage(), sim.New())
	log, err := wal.New(wal.DefaultConfig(0), eng.Owner())
	if err != nil {
		return fmt.Errorf("bench: wal rung: %w", err)
	}
	// Touch the region's end first so the rungs do not pay for growing the
	// store's backing memory.
	eng.Owner().WriteAt(make([]byte, pageBytes), wal.DefaultConfig(0).Capacity-pageBytes)
	rec := wal.Record{Kind: kv.Put, Key: spec.Key(1), Value: spec.Value(1)}
	// A full log is truncated and the measurement goes on: at these run
	// lengths that is at most one header write per few hundred thousand
	// appends.
	appendRec := func(b *testing.B) {
		if _, err := log.Append(rec); err != nil {
			if !errors.Is(err, wal.ErrLogFull) {
				b.Fatal(err)
			}
			log.Checkpoint()
		}
	}
	res.set("wal.append_ns", benchNs(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			appendRec(b)
		}
	}))
	for _, k := range []int{1, 16, 64} {
		res.set(fmt.Sprintf("wal.commit_us_b%d", k), benchNs(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := 0; j < k; j++ {
					appendRec(b)
				}
				if err := log.Commit(); err != nil {
					if !errors.Is(err, wal.ErrLogFull) {
						b.Fatal(err)
					}
					log.Checkpoint()
				}
			}
		})/1e3)
	}
	return nil
}

// ---- engine: group commit, ship ring, checkpoint, recovery, snapshots -----

// The durability rungs keep their cache, journal and log regions small: the
// store image is host memory.
var (
	rungEngineCfg  = engine.Config{CacheBytes: 8 << 20}
	rungDurableCfg = engine.DurabilityConfig{LogBytes: 16 << 20}
	rungBTreeCfg   = btree.Config{NodeBytes: pageBytes, MaxKeyBytes: 16, MaxValueBytes: 100}
)

// durableBTree builds a durable engine on store with a loaded B-tree, as
// kvserve -durable does.
func durableBTree(store storage.ByteStore, items int64) (*engine.Engine, *engine.Durable, error) {
	eng := engine.FromStore(rungEngineCfg, store, sim.New())
	if err := eng.EnableDurability(rungDurableCfg); err != nil {
		return nil, nil, err
	}
	tree, err := btree.New(rungBTreeCfg, eng)
	if err != nil {
		return nil, nil, err
	}
	d, err := eng.Durable("btree", tree)
	if err != nil {
		return nil, nil, err
	}
	workload.Load(d, workload.DefaultSpec(), items)
	return eng, d, eng.Sync()
}

// nullDict accepts every mutation and stores nothing: under a Durable
// wrapper it leaves only the WAL append, the version bracket and the commit
// hooks, which is what the ship-ring rungs are after.
type nullDict struct{}

func (nullDict) Get([]byte) ([]byte, bool)                  { return nil, false }
func (nullDict) Put(_, _ []byte)                            {}
func (nullDict) Delete([]byte) bool                         { return true }
func (nullDict) Scan(_, _ []byte, _ func(_, _ []byte) bool) {}
func (nullDict) Stats() engine.Stats                        { return engine.Stats{} }

// putBatch fills muts with Puts of keys drawn from rng.
func putBatch(muts []engine.Mutation, d *engine.Durable, rng *stats.RNG, keys int64) {
	spec := workload.DefaultSpec()
	for i := range muts {
		id := uint64(rng.Int63n(keys))
		muts[i] = engine.Mutation{Dict: d, Kind: kv.Put, Key: spec.Key(id), Value: spec.Value(id)}
	}
}

func ladderDurability(res *runResult) error {
	spec := workload.DefaultSpec()
	rng := stats.NewRNG(1)

	// ApplyBatch end to end (WAL append, tree apply, one commit), shipping off.
	eng, d, err := durableBTree(storage.NewStore(pdamStorage()), ladderItems)
	if err != nil {
		return fmt.Errorf("bench: apply rung: %w", err)
	}
	for _, k := range []int{1, 16, 64} {
		muts := make([]engine.Mutation, k)
		res.set(fmt.Sprintf("engine.apply_us_per_mut_b%d", k), benchNs(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				putBatch(muts, d, rng, ladderItems)
				if err := eng.ApplyBatch(muts); err != nil {
					b.Fatal(err)
				}
			}
		})/1e3/float64(k))
	}

	// A snapshot read of an unchanged key: chain lookup, then the tree.
	snap, err := eng.Snapshot()
	if err != nil {
		return fmt.Errorf("bench: snapshot rung: %w", err)
	}
	res.set("engine.snap_get_ns", benchNs(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, _, err := snap.Get(d, spec.Key(uint64(rng.Int63n(ladderItems))))
			if err != nil {
				b.Fatal(err)
			}
			sink = v
		}
	}))
	snap.Release()

	if err := ladderCheckpoint(res); err != nil {
		return err
	}
	if err := ladderShip(res); err != nil {
		return err
	}
	return ladderRecover(res)
}

// ladderCheckpoint times a checkpoint of 2,048 dirty pages: journal seal,
// in-place install, WAL truncation.
func ladderCheckpoint(res *runResult) error {
	const pages = 2048
	eng := engine.New(engine.Config{CacheBytes: 4 * pages * pageBytes}, pdamStorage(), sim.New())
	err := eng.EnableDurability(engine.DurabilityConfig{LogBytes: 1 << 20, JournalBytes: 2 * pages * pageBytes})
	if err != nil {
		return fmt.Errorf("bench: checkpoint rung: %w", err)
	}
	loader := &pageLoader{buf: make([]byte, pageBytes)}
	ids := allocPages(eng, pages)
	c, p := eng.Owner(), eng.Pager()
	for _, id := range ids {
		p.Put(c, loader, id, loader, pageBytes)
		p.Unpin(c, id)
	}
	res.set("engine.checkpoint_ms", medianOf(func() float64 {
		ms := timeMs(func() {
			if cerr := eng.Checkpoint(); cerr != nil {
				err = cerr
			}
		})
		dirtyAgain(p, c, loader, ids)
		return ms
	}))
	if err != nil {
		return fmt.Errorf("bench: checkpoint rung: %w", err)
	}
	return nil
}

// ladderShip prices the ship ring as the commit hook sees it: ApplyBatch on
// an engine with shipping on minus the same on one with it off, per record,
// with the ring below capacity and at it.
func ladderShip(res *runResult) error {
	rng := stats.NewRNG(2)
	type rig struct {
		eng *engine.Engine
		d   *engine.Durable
	}
	build := func(ship bool) (rig, error) {
		eng := engine.New(rungEngineCfg, pdamStorage(), sim.New())
		if err := eng.EnableDurability(rungDurableCfg); err != nil {
			return rig{}, err
		}
		if ship {
			if err := eng.EnableShipping(0); err != nil {
				return rig{}, err
			}
		}
		d, err := eng.Durable("null", nullDict{})
		return rig{eng, d}, err
	}
	off, err := build(false)
	if err != nil {
		return fmt.Errorf("bench: ship rung: %w", err)
	}
	on, err := build(true)
	if err != nil {
		return fmt.Errorf("bench: ship rung: %w", err)
	}
	var applyErr error
	// apply times batches x size mutations on r, in nanoseconds.
	apply := func(r rig, batches, size int) float64 {
		muts := make([]engine.Mutation, size)
		return 1e6 * timeMs(func() {
			for i := 0; i < batches; i++ {
				putBatch(muts, r.d, rng, ladderItems)
				if err := r.eng.ApplyBatch(muts); err != nil {
					applyErr = err
				}
			}
		})
	}
	perRecord := func(batches, size int) float64 {
		return medianOf(func() float64 {
			return (apply(on, batches, size) - apply(off, batches, size)) / float64(batches*size)
		})
	}

	// Below capacity: 5 x 128 x 64 = 40,960 records < engine.DefaultShipCap.
	res.set("engine.ship_append_ns_empty", perRecord(128, 64))
	for on.eng.ShipStats().Buffered < engine.DefaultShipCap {
		apply(on, 16, 64)
	}
	// At capacity every append copies the ring, so a few records suffice.
	res.set("engine.ship_append_ns_full", perRecord(4, 16))
	if applyErr != nil {
		return fmt.Errorf("bench: ship rung: %w", applyErr)
	}

	// A replica's pull of 256 records from the full ring.
	after := on.eng.ShipStats().CommittedLSN - 256
	var pullErr error
	res.set("engine.ship_since_us", benchNs(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			recs, _, err := on.eng.ShipSince(after, 256)
			if err != nil || len(recs) != 256 {
				pullErr = fmt.Errorf("pulled %d records: %v", len(recs), err)
			}
			sink = recs
		}
	})/1e3)
	if pullErr != nil {
		return fmt.Errorf("bench: ship rung: %w", pullErr)
	}
	return nil
}

// ladderRecover times Recover + Open + Attach + Replay of an image whose
// committed WAL suffix holds 8,192 records, per thousand records.
func ladderRecover(res *runResult) error {
	const suffix = 8192
	spec := workload.DefaultSpec()
	var recErr error
	ms := medianOf(func() float64 {
		store := storage.NewStore(pdamStorage())
		eng, d, err := durableBTree(store, 5000)
		if err == nil {
			err = eng.Checkpoint()
		}
		if err != nil {
			recErr = err
			return 0
		}
		for id := uint64(0); id < suffix; id++ {
			d.Put(spec.Key(id), spec.Value(id+1))
		}
		if err := eng.Sync(); err != nil {
			recErr = err
			return 0
		}
		return timeMs(func() {
			eng2, rec, err := engine.Recover(rungEngineCfg, rungDurableCfg, store, sim.New())
			if err != nil {
				recErr = err
				return
			}
			manifest, _ := rec.Manifest("btree")
			tree, err := btree.Open(rungBTreeCfg, eng2, manifest)
			if err != nil {
				recErr = err
				return
			}
			if _, err := rec.Attach("btree", tree); err != nil {
				recErr = err
				return
			}
			n, err := rec.Replay()
			if err != nil || n != suffix {
				recErr = fmt.Errorf("replayed %d of %d records: %v", n, suffix, err)
			}
		})
	})
	if recErr != nil {
		return fmt.Errorf("bench: recover rung: %w", recErr)
	}
	res.set("engine.recover_ms_per_krec", ms/(suffix/1000.0))
	return nil
}

// ---- dictionaries ----------------------------------------------------------

// newDict builds an empty dictionary of the named kind on a fresh engine
// with room for everything a rung loads: the B-tree as kvserve configures
// it, the Bε-tree as embedded-betree does, the others at their defaults.
func newDict(kind string) (engine.Dictionary, *engine.Engine, error) {
	spec := workload.DefaultSpec()
	var dev storage.Device = pdamStorage()
	if kind == "betree" {
		dev = hdd.NewDeterministic(hdd.DefaultProfile())
	}
	eng := engine.New(engine.Config{CacheBytes: 64 << 20}, dev, sim.New())
	var (
		d   engine.Dictionary
		err error
	)
	switch kind {
	case "btree":
		d, err = btree.New(rungBTreeCfg, eng)
	case "betree":
		d, err = betree.New(betree.Config{NodeBytes: 64 << 10, MaxFanout: 16,
			MaxKeyBytes: spec.KeyBytes, MaxValueBytes: spec.ValueBytes}.Optimized(), eng)
	case "lsm":
		d, err = lsm.New(lsm.DefaultConfig(), eng)
	case "cobtree":
		d, err = cobtree.New(cobtree.Config{MaxKeyBytes: spec.KeyBytes,
			MaxValueBytes: spec.ValueBytes, BlockBytes: pageBytes}, eng)
	default:
		err = fmt.Errorf("unknown dictionary %q", kind)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("bench: %s rung: %w", kind, err)
	}
	return d, eng, nil
}

// ladderDict measures one dictionary's four common rungs (and the extras of
// the two that serve a workload).
func ladderDict(res *runResult, kind string) error {
	spec := workload.DefaultSpec()
	rng := stats.NewRNG(3)
	randKey := func() []byte { return spec.Key(uint64(rng.Int63n(ladderItems))) }

	// put_ns: fresh keys into a growing structure.
	d, _, err := newDict(kind)
	if err != nil {
		return err
	}
	next := uint64(0)
	res.set(kind+".put_ns", benchNs(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.Put(spec.Key(next), spec.Value(next))
			next++
		}
	}))

	// The read rungs run on a loaded, fully cached structure.
	d, eng, err := newDict(kind)
	if err != nil {
		return err
	}
	workload.Load(d, spec, ladderItems)
	if f, ok := d.(interface{ Flush() }); ok {
		f.Flush() // write-backs done: eviction below drops clean pages only
	}
	get := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, ok := d.Get(randKey())
			if !ok {
				b.Fatal("lost a key")
			}
			sink = v
		}
	}
	res.set(kind+".get_hit_ns", benchNs(get))
	if kind == "btree" {
		res.set("btree.get_allocs", benchAllocs(get))
	}
	res.set(kind+".scan100_us", benchNs(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			d.Scan(randKey(), nil, func(_, _ []byte) bool {
				n++
				return n < 100
			})
		}
	})/1e3)
	if kind == "betree" {
		up := d.(engine.Upserter)
		res.set("betree.upsert_ns", benchNs(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				up.Upsert(randKey(), 1)
			}
		}))
	}

	// get_miss_ios: device reads of one Get against an empty cache.
	const probes = 64
	var reads int64
	for i := 0; i < probes; i++ {
		eng.Pager().EvictAll(eng.Owner())
		before := eng.Counters().Reads
		if _, ok := d.Get(randKey()); !ok {
			return fmt.Errorf("bench: %s rung: lost a key", kind)
		}
		reads += eng.Counters().Reads - before
	}
	res.set(kind+".get_miss_ios", float64(reads)/probes)
	return nil
}

// nopFetcher satisfies veb.Fetcher: the rung prices the search, not the IO.
type nopFetcher struct{}

func (nopFetcher) Fetch(int64, int) {}

func ladderVEB(res *runResult) {
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = uint64(i) * 3
	}
	tree := veb.Build(veb.Config{BlockEntries: 256, NodeBlocks: 16, Design: veb.VEBNodes}, keys)
	rng := stats.NewRNG(4)
	res.set("veb.contains_ns", benchNs(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = tree.Contains(uint64(rng.Int63n(3<<16)), 1, nopFetcher{})
		}
	}))
}

// ---- spawned kvserve -------------------------------------------------------

// rttUs returns the median wall time of rttSamples calls of op, in µs.
func rttUs(op func() error) (float64, error) {
	samples := make([]int64, 0, rttSamples)
	for i := 0; i < rttSamples; i++ {
		t0 := time.Now()
		if err := op(); err != nil {
			return 0, err
		}
		samples = append(samples, int64(time.Since(t0)))
	}
	return summarize(samples, 1e3).P50, nil
}

// withKVServe runs fn against a kvserve started with args and one client.
func withKVServe(env *benchEnv, name string, args []string, fn func(cl *server.Client, addr string) error) error {
	srv, addr, _, err := env.startKVServe(name, args...)
	if err != nil {
		return err
	}
	defer srv.kill()
	cl, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	return fn(cl, addr)
}

func ladderServerReads(env *benchEnv, res *runResult) error {
	spec := workload.DefaultSpec()
	rng := stats.NewRNG(5)
	getOp := func(cl *server.Client) func() error {
		return func() error {
			id := uint64(rng.Int63n(ladderItems))
			_, found, err := cl.Get(spec.Key(id))
			if err == nil && !found {
				err = fmt.Errorf("bench: key %d not found", id)
			}
			return err
		}
	}
	items := []string{"-items", fmt.Sprint(ladderItems)}
	err := withKVServe(env, "ladder.reads", items, func(cl *server.Client, _ string) error {
		ping, err := rttUs(cl.Ping)
		if err != nil {
			return err
		}
		res.set("server.ping_rtt_us", ping)
		get, err := rttUs(getOp(cl))
		if err != nil {
			return err
		}
		res.set("server.get_rtt_us", get)
		var opErr error
		op := getOp(cl)
		res.set("server.client_get_allocs", testing.AllocsPerRun(100, func() {
			if err := op(); err != nil {
				opErr = err
			}
		}))
		return opErr
	})
	if err != nil {
		return err
	}
	// -batch 1 launches every read at once: no grace timer on the path.
	err = withKVServe(env, "ladder.batch1", append(items, "-batch", "1"), func(cl *server.Client, _ string) error {
		get, err := rttUs(getOp(cl))
		if err != nil {
			return err
		}
		res.set("server.get_rtt_batch1_us", get)
		return nil
	})
	if err != nil {
		return err
	}
	res.set("server.sched_wait_us", res.Values["server.get_rtt_us"]-res.Values["server.get_rtt_batch1_us"])
	return nil
}

func ladderServerWrites(env *benchEnv, res *runResult) error {
	spec := workload.DefaultSpec()
	rng := stats.NewRNG(6)
	for _, rung := range []struct {
		name string
		args []string
	}{
		{"server.put_rtt_plain_us", []string{"-items", fmt.Sprint(ladderItems)}},
		{"server.put_rtt_durable_us", []string{"-items", fmt.Sprint(ladderItems), "-durable"}},
	} {
		err := withKVServe(env, "ladder.writes", rung.args, func(cl *server.Client, _ string) error {
			put, err := rttUs(func() error {
				id := uint64(rng.Int63n(ladderItems))
				return cl.Put(spec.Key(id), spec.Value(id))
			})
			res.set(rung.name, put)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ladderCluster keeps a number on the parked topologies: a sync-ship
// primary with a warm replica, reached directly and through the router.
func ladderCluster(env *benchEnv, res *runResult) error {
	const items = 2000 // few enough that the replica catches up at once
	spec := workload.DefaultSpec()
	rng := stats.NewRNG(7)
	key := func() []byte { return spec.Key(uint64(rng.Int63n(items))) }
	// -batch 1 keeps the grace timer's ~1 ms (and its jitter) out of the
	// routed-minus-direct difference.
	primaryArgs := []string{"-items", fmt.Sprint(items), "-durable", "-sync-ship", "-batch", "1"}
	return withKVServe(env, "ladder.primary", primaryArgs, func(cl *server.Client, primary string) error {
		replicaArgs := []string{"-durable", "-replica-of", primary}
		return withKVServe(env, "ladder.replica", replicaArgs, func(rcl *server.Client, replica string) error {
			router, err := cluster.NewRouter(cluster.RouterConfig{
				Shards: []cluster.ShardSpec{{Primary: primary, Replicas: []string{replica}}}})
			if err != nil {
				return err
			}
			defer router.Close()
			direct, err := rttUs(func() error { _, _, err := cl.Get(key()); return err })
			if err != nil {
				return err
			}
			routed, err := rttUs(func() error { _, _, err := router.Get(key()); return err })
			if err != nil {
				return err
			}
			res.set("cluster.router_overhead_us", routed-direct)

			// A sync-ship Put is acknowledged once the replica has pulled past
			// it, so the replica must first have caught up with the preload.
			for deadline := time.Now().Add(startTimeout); ; time.Sleep(10 * time.Millisecond) {
				p, err := cl.Hello()
				if err != nil {
					return err
				}
				r, err := rcl.Hello()
				if err != nil {
					return err
				}
				if r.AppliedLSN >= p.CommittedLSN {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("bench: replica stuck at LSN %d of %d", r.AppliedLSN, p.CommittedLSN)
				}
			}
			put, err := rttUs(func() error {
				id := uint64(rng.Int63n(items))
				return cl.Put(spec.Key(id), spec.Value(id))
			})
			if err != nil {
				return err
			}
			res.set("cluster.syncship_put_p50_us", put)
			st, err := fetchStats(rcl)
			if err != nil {
				return err
			}
			res.set("cluster.ship_lag_ewma_ms", st.ShipLag.EWMASeconds*1e3)
			return nil
		})
	})
}

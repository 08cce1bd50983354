package betree

import (
	"bytes"
	"sync"
	"testing"

	"iomodels/internal/engine"
	"iomodels/internal/hdd"
	"iomodels/internal/sim"
	"iomodels/internal/stats"
)

// TestConcurrentSessions runs k sim processes querying one shared tree
// through the sharded pager: every client must see correct values while
// loads, latch waits, and evictions interleave in virtual time. Run under
// -race this validates the pager's locking discipline on the real Bε-tree
// read path (partial slot reads, PutClean races, full-node upgrades).
func TestConcurrentSessions(t *testing.T) {
	for name, cfg := range configs(16<<10, 0) {
		t.Run(name, func(t *testing.T) {
			clk := sim.New()
			// Tiny budget over 4 shards: constant eviction during queries.
			eng := engine.New(engine.Config{CacheBytes: 128 << 10, Shards: 4},
				hdd.NewDeterministic(hdd.DefaultProfile()), clk)
			tree, err := New(cfg, eng)
			if err != nil {
				t.Fatal(err)
			}
			const n = 4000
			for i := 0; i < n; i++ {
				tree.Put(key(i), value(i))
			}
			tree.Settle()
			tree.Flush()

			const clients = 8
			const queries = 150
			root := stats.NewRNG(23)
			for c := 0; c < clients; c++ {
				rng := root.Split(uint64(c))
				clk.Go(func(pr *sim.Proc) {
					s := tree.Session(eng.Process(pr))
					for q := 0; q < queries; q++ {
						i := rng.Intn(n)
						v, ok := s.Get(key(i))
						if !ok || !bytes.Equal(v, value(i)) {
							t.Errorf("session Get(%d) = %q, %v", i, v, ok)
							return
						}
					}
				})
			}
			start := clk.Now()
			clk.Run()
			if clk.Now() == start {
				t.Fatal("no virtual time elapsed")
			}
			st := tree.Stats()
			if st.Pager.Hits == 0 || st.Pager.Misses == 0 {
				t.Fatalf("expected cache traffic: %+v", st.Pager.ShardStats)
			}
		})
	}
}

// TestConcurrentHostSessions: host goroutines — the way kvserve serves reads
// — drive Gets and Scans through engine sessions on one shared tree, over a
// cache of a few nodes, so nodes are read a slot at a time, made whole by a
// scan, evicted and read again while other readers hold them. A reader adds
// to a shared node only by publishing: a slot or basement with a
// compare-and-swap, a whole node with Pager.Swap. TestConcurrentSessions
// cannot see a reader that writes a node another reader holds, because its
// sim processes take turns; here such a write is a data race under -race,
// and a panic on the map an in-place upgrade left nil without it.
func TestConcurrentHostSessions(t *testing.T) {
	for name, cfg := range configs(16<<10, 0) {
		t.Run(name, func(t *testing.T) {
			eng := engine.New(engine.Config{CacheBytes: 64 << 10, Shards: 2},
				hdd.NewDeterministic(hdd.DefaultProfile()), sim.New())
			tree, err := New(cfg, eng)
			if err != nil {
				t.Fatal(err)
			}
			const n = 6000
			for i := 0; i < n; i++ {
				tree.Put(key(i), value(i))
			}
			tree.Settle()
			tree.Flush()
			eng.Pager().EvictAll(eng.Owner())

			const clients, ops, scanLen = 8, 300, 20
			var wg sync.WaitGroup
			root := stats.NewRNG(26)
			for c := 0; c < clients; c++ {
				rng := root.Split(uint64(c))
				s := tree.Session(eng.Detached())
				wg.Add(1)
				go func() {
					defer wg.Done()
					for q := 0; q < ops; q++ {
						i := rng.Intn(n)
						if q%5 != 0 {
							if v, ok := s.Get(key(i)); !ok || !bytes.Equal(v, value(i)) {
								t.Errorf("Get(%d) = %q, %v", i, v, ok)
								return
							}
							continue
						}
						want := i
						s.Scan(key(i), nil, func(k, v []byte) bool {
							if !bytes.Equal(k, key(want)) || !bytes.Equal(v, value(want)) {
								t.Errorf("scan from %d: got %q=%q, want %q", i, k, v, key(want))
								return false
							}
							want++
							return want < min(i+scanLen, n)
						})
						if want != min(i+scanLen, n) {
							t.Errorf("scan from %d stopped at %d", i, want)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestConcurrentScanSessions: concurrent range scans through sessions see
// ordered, complete windows.
func TestConcurrentScanSessions(t *testing.T) {
	cfg := configs(16<<10, 0)["slot-only"]
	clk := sim.New()
	eng := engine.New(engine.Config{CacheBytes: 256 << 10, Shards: 4},
		hdd.NewDeterministic(hdd.DefaultProfile()), clk)
	tree, err := New(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := 0; i < n; i++ {
		tree.Put(key(i), value(i))
	}
	tree.Settle()
	tree.Flush()

	const clients = 4
	for c := 0; c < clients; c++ {
		lo := c * 500
		clk.Go(func(pr *sim.Proc) {
			s := tree.Session(eng.Process(pr))
			want := lo
			s.Scan(key(lo), key(lo+200), func(k, v []byte) bool {
				if !bytes.Equal(k, key(want)) {
					t.Errorf("scan at %d: got %q want %q", lo, k, key(want))
					return false
				}
				want++
				return true
			})
			if want != lo+200 {
				t.Errorf("scan from %d returned %d items", lo, want-lo)
			}
		})
	}
	clk.Run()
}

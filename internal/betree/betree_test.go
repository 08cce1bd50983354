package betree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"testing"

	"iomodels/internal/engine"
	"iomodels/internal/hdd"
	"iomodels/internal/sim"
	"iomodels/internal/stats"
	"iomodels/internal/storage"
)

// configs is the test matrix of node organizations.
func configs(nodeBytes int, cacheBytes int64) map[string]Config {
	base := Config{
		NodeBytes:     nodeBytes,
		MaxFanout:     8,
		MaxKeyBytes:   32,
		MaxValueBytes: 128,
	}
	_ = cacheBytes
	packed := base
	packed.Layout = Packed
	packed.QueryMode = WholeNode
	slottedWhole := base
	slottedWhole.Layout = Slotted
	slottedWhole.QueryMode = WholeNode
	metaSlot := base
	metaSlot.Layout = Slotted
	metaSlot.QueryMode = MetaPlusSlot
	slotOnly := base.Optimized()
	return map[string]Config{
		"packed":        packed,
		"slotted-whole": slottedWhole,
		"meta+slot":     metaSlot,
		"slot-only":     slotOnly,
	}
}

func newTestTree(t *testing.T, cfg Config, cacheBytes ...int64) *Tree {
	t.Helper()
	clk := sim.New()
	budget := int64(1 << 20)
	if len(cacheBytes) > 0 {
		budget = cacheBytes[0]
	}
	eng := engine.New(engine.Config{CacheBytes: budget, Shards: 1},
		hdd.NewDeterministic(hdd.DefaultProfile()), clk)
	tree, err := New(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func key(i int) []byte   { return []byte(fmt.Sprintf("key-%08d", i)) }
func value(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

func TestEmptyTree(t *testing.T) {
	for name, cfg := range configs(64<<10, 1<<20) {
		t.Run(name, func(t *testing.T) {
			tree := newTestTree(t, cfg)
			if _, ok := tree.Get(key(1)); ok {
				t.Fatal("found key in empty tree")
			}
			if tree.Items() != 0 || tree.Height() != 1 {
				t.Fatalf("items=%d height=%d", tree.Items(), tree.Height())
			}
		})
	}
}

func TestPutGetThroughRootLeaf(t *testing.T) {
	for name, cfg := range configs(64<<10, 1<<20) {
		t.Run(name, func(t *testing.T) {
			tree := newTestTree(t, cfg)
			for i := 0; i < 50; i++ {
				tree.Put(key(i), value(i))
			}
			for i := 0; i < 50; i++ {
				v, ok := tree.Get(key(i))
				if !ok || !bytes.Equal(v, value(i)) {
					t.Fatalf("Get(%d) = %q, %v", i, v, ok)
				}
			}
		})
	}
}

func TestGrowthThroughFlushes(t *testing.T) {
	for name, cfg := range configs(16<<10, 1<<20) {
		t.Run(name, func(t *testing.T) {
			if cfg.Layout == Slotted {
				cfg.MaxFanout = 4 // small slots force deep flushing
			}
			tree := newTestTree(t, cfg)
			const n = 4000
			for i := 0; i < n; i++ {
				tree.Put(key(i), value(i))
			}
			if tree.Height() < 2 {
				t.Fatalf("height = %d, tree never grew", tree.Height())
			}
			if tree.Flushes == 0 {
				t.Fatal("no flushes happened")
			}
			if err := tree.Check(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				v, ok := tree.Get(key(i))
				if !ok || !bytes.Equal(v, value(i)) {
					t.Fatalf("Get(%d) lost after flushes: %v", i, ok)
				}
			}
			// Buffered inserts are not counted until settled.
			if tree.Items() > n {
				t.Fatalf("items = %d > inserted %d", tree.Items(), n)
			}
			tree.Settle()
			if tree.Items() != n {
				t.Fatalf("items = %d after Settle, inserted %d", tree.Items(), n)
			}
			if err := tree.Check(); err != nil {
				t.Fatalf("after Settle: %v", err)
			}
		})
	}
}

func TestDeleteViaTombstones(t *testing.T) {
	for name, cfg := range configs(16<<10, 1<<20) {
		t.Run(name, func(t *testing.T) {
			tree := newTestTree(t, cfg)
			const n = 2000
			for i := 0; i < n; i++ {
				tree.Put(key(i), value(i))
			}
			for i := 0; i < n; i += 2 {
				tree.Delete(key(i))
			}
			for i := 0; i < n; i++ {
				_, ok := tree.Get(key(i))
				if want := i%2 == 1; ok != want {
					t.Fatalf("Get(%d) = %v, want %v", i, ok, want)
				}
			}
			if err := tree.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestUpserts(t *testing.T) {
	for name, cfg := range configs(16<<10, 1<<20) {
		t.Run(name, func(t *testing.T) {
			tree := newTestTree(t, cfg)
			// Interleave upserts to the same counters with enough other
			// traffic to push messages down the tree.
			for round := 0; round < 50; round++ {
				for c := 0; c < 10; c++ {
					tree.Upsert(key(c), int64(c+1))
				}
				for i := 0; i < 100; i++ {
					tree.Put(key(1000+round*100+i), value(i))
				}
			}
			for c := 0; c < 10; c++ {
				v, ok := tree.Get(key(c))
				if !ok {
					t.Fatalf("counter %d missing", c)
				}
				got := int64(binary.BigEndian.Uint64(v))
				want := int64(50 * (c + 1))
				if got != want {
					t.Fatalf("counter %d = %d, want %d", c, got, want)
				}
			}
			if err := tree.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestUpsertThenDeleteThenUpsert(t *testing.T) {
	cfg := configs(16<<10, 1<<20)["slot-only"]
	tree := newTestTree(t, cfg)
	tree.Upsert(key(1), 10)
	tree.Delete(key(1))
	tree.Upsert(key(1), 7)
	v, ok := tree.Get(key(1))
	if !ok || int64(binary.BigEndian.Uint64(v)) != 7 {
		t.Fatalf("counter = %v %v, want 7", v, ok)
	}
}

func TestPutOverwriteNewestWins(t *testing.T) {
	for name, cfg := range configs(16<<10, 1<<20) {
		t.Run(name, func(t *testing.T) {
			tree := newTestTree(t, cfg)
			// Push an old version deep, then overwrite near the root.
			tree.Put(key(42), []byte("old"))
			for i := 0; i < 3000; i++ {
				tree.Put(key(10000+i), value(i))
			}
			tree.Put(key(42), []byte("new"))
			v, ok := tree.Get(key(42))
			if !ok || string(v) != "new" {
				t.Fatalf("got %q, %v", v, ok)
			}
		})
	}
}

func TestScanMergesBuffersAndLeaves(t *testing.T) {
	for name, cfg := range configs(16<<10, 1<<20) {
		t.Run(name, func(t *testing.T) {
			tree := newTestTree(t, cfg)
			const n = 3000
			for i := 0; i < n; i++ {
				tree.Put(key(i), value(i))
			}
			// Recent updates still sitting in buffers must appear in scans.
			tree.Put(key(100), []byte("fresh"))
			tree.Delete(key(101))
			var got []string
			tree.Scan(key(95), key(105), func(k, v []byte) bool {
				got = append(got, fmt.Sprintf("%s=%s", k, v))
				return true
			})
			want := []string{}
			for i := 95; i < 105; i++ {
				switch i {
				case 100:
					want = append(want, string(key(i))+"=fresh")
				case 101: // deleted
				default:
					want = append(want, fmt.Sprintf("%s=%s", key(i), value(i)))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("scan = %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("scan[%d] = %s, want %s", i, got[i], want[i])
				}
			}
		})
	}
}

func TestScanEarlyStop(t *testing.T) {
	cfg := configs(16<<10, 1<<20)["slot-only"]
	tree := newTestTree(t, cfg)
	for i := 0; i < 1000; i++ {
		tree.Put(key(i), value(i))
	}
	ents := tree.ScanN(key(500), 5)
	if len(ents) != 5 || string(ents[0].Key) != string(key(500)) {
		t.Fatalf("ScanN = %d entries, first %q", len(ents), ents[0].Key)
	}
}

// TestRandomOpsAgainstModel drives every configuration with a random mix of
// puts, deletes, upserts and gets, mirrored into a model map.
func TestRandomOpsAgainstModel(t *testing.T) {
	for name, cfg := range configs(16<<10, 128<<10) {
		t.Run(name, func(t *testing.T) {
			tree := newTestTree(t, cfg)
			model := map[string][]byte{}
			rng := stats.NewRNG(9999)
			flushes := int64(0)
			const ops = 20000
			for i := 0; i < ops; i++ {
				id := int(rng.Intn(4000))
				k := key(id)
				ks := string(k)
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					v := []byte(fmt.Sprintf("v%d-%d", id, i))
					tree.Put(k, v)
					model[ks] = v
				case 4, 5:
					tree.Delete(k)
					delete(model, ks)
				case 6:
					tree.Upsert(k, int64(id))
					// Mirror kv.Message upsert semantics: any existing
					// 8-byte value is treated as a counter.
					var cur int64
					if v, ok := model[ks]; ok && len(v) == 8 {
						cur = int64(binary.BigEndian.Uint64(v))
					}
					var b [8]byte
					binary.BigEndian.PutUint64(b[:], uint64(cur+int64(id)))
					model[ks] = b[:]
				default:
					v, ok := tree.Get(k)
					mv, mok := model[ks]
					if ok != mok || (ok && !bytes.Equal(v, mv)) {
						t.Fatalf("op %d: Get(%d) = %q,%v; model %q,%v", i, id, v, ok, mv, mok)
					}
				}
				if tree.Flushes != flushes { // every flush is checked
					flushes = tree.Flushes
					if err := tree.Check(); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
			}
			// 4,000 keys grow every layout to height 3, so the checked
			// flushes include flushes into internal children and the root
			// split that made them.
			if h := tree.Height(); h < 3 {
				t.Fatalf("height %d after %d ops, want ≥ 3", h, ops)
			}
			// Final full-scan agreement.
			var wantKeys []string
			for k := range model {
				wantKeys = append(wantKeys, k)
			}
			sort.Strings(wantKeys)
			var gotKeys []string
			tree.Scan(nil, nil, func(k, v []byte) bool {
				gotKeys = append(gotKeys, string(k))
				if !bytes.Equal(model[string(k)], v) {
					t.Fatalf("scan value mismatch at %s", k)
				}
				return true
			})
			if len(gotKeys) != len(wantKeys) {
				t.Fatalf("scan length %d != model %d", len(gotKeys), len(wantKeys))
			}
			for i := range gotKeys {
				if gotKeys[i] != wantKeys[i] {
					t.Fatalf("scan[%d] = %s, want %s", i, gotKeys[i], wantKeys[i])
				}
			}
		})
	}
}

// TestSmallCacheEviction forces constant eviction so every path round-trips
// through serialization, in every layout.
func TestSmallCacheEviction(t *testing.T) {
	for name, cfg := range configs(16<<10, 64<<10) {
		t.Run(name, func(t *testing.T) {
			tree := newTestTree(t, cfg, 64<<10)
			const n = 3000
			for i := 0; i < n; i++ {
				tree.Put(key(i), value(i))
			}
			for i := 0; i < n; i++ {
				v, ok := tree.Get(key(i))
				if !ok || !bytes.Equal(v, value(i)) {
					t.Fatalf("Get(%d) failed after eviction", i)
				}
			}
			st := tree.pager().Stats()
			if st.Evictions == 0 || st.Writebacks == 0 {
				t.Fatalf("cache never spilled: %+v", st)
			}
			if err := tree.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGetThroughDecodedSlots: with every node but the root evicted, a
// slot-mode Get reads each internal level a slot at a time, so the buffered
// messages it applies come from a slot decoded into a partial node
// (readSlot's non-resident branch), not from a whole node. In every layout
// and query mode, on a small cache, through the owner and a Detached
// session, every Get and Scan agrees with a model. Gets leave a head column
// on every slot and basement they decoded, which Check finds whole; a scan
// leaves a lazy leaf's basements without one, and a later Get adds it.
func TestGetThroughDecodedSlots(t *testing.T) {
	for name, cfg := range configs(16<<10, 0) {
		t.Run(name, func(t *testing.T) {
			tree := newTestTree(t, cfg, 32<<10)
			model := map[string][]byte{}
			const n = 3000
			for i := 0; i < n; i++ {
				tree.Put(key(i), value(i))
				model[string(key(i))] = value(i)
			}
			tree.Settle()
			rng := stats.NewRNG(39)
			for i := 0; i < 2000; i++ { // leaves non-empty buffers below the root
				id := rng.Intn(n + n/5)
				if k := key(id); rng.Intn(4) == 0 {
					tree.Delete(k)
					delete(model, string(k))
				} else {
					tree.Put(k, value(id+i))
					model[string(k)] = value(id + i)
				}
			}
			if tree.Height() < 3 {
				t.Fatalf("height %d: want internal nodes below the root", tree.Height())
			}
			wantKeys := make([]string, 0, len(model))
			for k := range model {
				wantKeys = append(wantKeys, k)
			}
			sort.Strings(wantKeys)
			s := tree.Session(tree.Engine().Detached())
			for _, who := range []struct {
				name string
				get  func([]byte) ([]byte, bool)
				scan func(lo, hi []byte, fn func(k, v []byte) bool)
			}{{"owner", tree.Get, tree.Scan}, {"detached", s.Get, s.Scan}} {
				gets := func() {
					for _, id := range rng.Perm(n + n/5) {
						k := key(id)
						got, ok := who.get(k)
						if want, wok := model[string(k)]; ok != wok || !bytes.Equal(got, want) {
							t.Fatalf("%s: Get(%d) = %q, %v; model %q, %v", who.name, id, got, ok, want, wok)
						}
					}
				}
				tree.Flush()
				tree.pager().EvictAll(tree.owner)
				evicted := tree.pager().Stats().Evictions
				gets()
				if tree.pager().Stats().Evictions == evicted {
					t.Fatalf("%s: the Gets evicted nothing", who.name)
				}
				bufSlots, indexed, bare := residentSlots(tree)
				if cfg.QueryMode != WholeNode && bufSlots == 0 {
					t.Fatalf("%s: no Get decoded a non-empty buffer slot into a partial node", who.name)
				}
				if bare > 0 || cfg.Layout == Slotted && indexed == 0 {
					t.Fatalf("%s: after Gets, %d decoded basements with a head column and %d without", who.name, indexed, bare)
				}
				if err := tree.Check(); err != nil {
					t.Fatalf("%s: %v", who.name, err)
				}

				tree.Flush()
				tree.pager().EvictAll(tree.owner)
				var gotKeys []string
				who.scan(nil, nil, func(k, v []byte) bool {
					if !bytes.Equal(v, model[string(k)]) {
						t.Fatalf("%s: scan value at %s", who.name, k)
					}
					gotKeys = append(gotKeys, string(k))
					return true
				})
				if !slices.Equal(gotKeys, wantKeys) {
					t.Fatalf("%s: scan returned %d keys, model holds %d", who.name, len(gotKeys), len(wantKeys))
				}
				if _, _, bare := residentSlots(tree); cfg.Layout == Slotted && bare == 0 {
					t.Fatalf("%s: the scan left no decoded basement without a head column", who.name)
				}
				gets()
				if _, _, bare := residentSlots(tree); bare > 0 {
					t.Fatalf("%s: Gets of every key left %d decoded basements without a head column", who.name, bare)
				}
				if err := tree.Check(); err != nil {
					t.Fatalf("%s: %v", who.name, err)
				}
			}
		})
	}
}

// residentSlots walks the nodes resident in the tree's pager from the root
// down, through whole and partial nodes alike, loading none. It counts the
// decoded internal slots that hold buffered messages, and the decoded leaf
// slots and basements with entries that have a head column and that have
// none.
func residentSlots(tree *Tree) (bufSlots, indexed, bare int) {
	var walk func(off int64, rt route)
	walk = func(off int64, rt route) {
		obj, pin := tree.pager().TryPin(tree.owner, engine.PageID(off))
		if pin == nil {
			return
		}
		defer tree.unpin(pin)
		n := obj.(*node)
		for i, c := range n.children { // a whole internal node
			var crt route
			if i < len(n.routes) {
				crt = n.routes[i]
			}
			walk(c, crt)
		}
		for j := range n.slots {
			p := n.slots[j].Load()
			switch {
			case p == nil:
			case !n.leaf:
				if len(p.buf.msgs) > 0 {
					bufSlots++
				}
				walk(rt.ptrs[j], p.route)
			case len(p.entries) == 0:
			case p.heads != nil:
				indexed++
			default:
				bare++
			}
		}
	}
	walk(tree.root, route{})
	return bufSlots, indexed, bare
}

// TestSlotOnlyQueryIOShape verifies the Theorem 9 claim operationally: a
// cold point query in SlotOnly mode issues exactly one IO per level below
// the root, each of one slot stride (~B/F), not whole nodes.
func TestSlotOnlyQueryIOShape(t *testing.T) {
	cfg := configs(32<<10, 1<<20)["slot-only"]
	tree := newTestTree(t, cfg)
	const n = 20000
	for i := 0; i < n; i++ {
		tree.Put(key(i), value(i))
	}
	tree.Flush()
	levels := tree.Height()
	if levels < 3 {
		t.Fatalf("tree too shallow (%d) for the IO-shape test", levels)
	}
	tree.pager().EvictAll(tree.owner)
	tr := &storage.Trace{}
	tree.eng.SetTrace(tr)
	tree.Get(key(n / 2))
	tree.eng.SetTrace(nil)
	// Root is pinned, so expect height-1 IOs.
	if got, want := tr.Len(), levels-1; got != want {
		t.Fatalf("cold query issued %d IOs, want %d (one per level below root): %+v", got, want, tr.Snapshot())
	}
	stride := int64(cfg.slotStride())
	for _, r := range tr.Snapshot() {
		if r.Op != storage.Read || r.Size != stride {
			t.Fatalf("query IO %+v is not a single slot read of %d", r, stride)
		}
	}
}

// TestWholeNodeQueryIOShape is the contrast: the naive organization reads
// whole nodes.
func TestWholeNodeQueryIOShape(t *testing.T) {
	cfg := configs(32<<10, 1<<20)["packed"]
	tree := newTestTree(t, cfg)
	const n = 20000
	for i := 0; i < n; i++ {
		tree.Put(key(i), value(i))
	}
	tree.Flush()
	levels := tree.Height()
	tree.pager().EvictAll(tree.owner)
	tr := &storage.Trace{}
	tree.eng.SetTrace(tr)
	tree.Get(key(n / 2))
	tree.eng.SetTrace(nil)
	if got, want := tr.Len(), levels-1; got != want {
		t.Fatalf("cold query issued %d IOs, want %d", got, want)
	}
	for _, r := range tr.Snapshot() {
		if r.Size != int64(cfg.NodeBytes) {
			t.Fatalf("query IO %+v is not a whole-node read of %d", r, cfg.NodeBytes)
		}
	}
}

func TestFlushPersistsEverything(t *testing.T) {
	for name, cfg := range configs(16<<10, 1<<20) {
		t.Run(name, func(t *testing.T) {
			tree := newTestTree(t, cfg)
			for i := 0; i < 2000; i++ {
				tree.Put(key(i), value(i))
			}
			tree.Flush()
			tree.pager().EvictAll(tree.owner)
			for i := 0; i < 2000; i++ {
				v, ok := tree.Get(key(i))
				if !ok || !bytes.Equal(v, value(i)) {
					t.Fatalf("lost key %d across flush+evict", i)
				}
			}
		})
	}
}

func TestWriteAmpMuchLowerThanBTreeStyle(t *testing.T) {
	// Sanity: under random inserts with a small cache, bytes written per
	// logical byte must be far below the node size in entries.
	cfg := configs(16<<10, 64<<10)["slot-only"]
	tree := newTestTree(t, cfg)
	const n = 5000
	for i := 0; i < n; i++ {
		tree.Put(key(i), value(i))
	}
	tree.Flush()
	c := tree.eng.Counters()
	wa := float64(c.BytesWritten) / float64(tree.LogicalBytesInserted)
	if wa <= 0 {
		t.Fatal("no write amplification measured")
	}
	// A B-tree rewriting a 16KiB node per ~20-byte update would have
	// WA in the hundreds; buffering must keep the Bε-tree far below that.
	if wa > 100 {
		t.Fatalf("write amplification %.1f implausibly high", wa)
	}
}

func TestConfigValidation(t *testing.T) {
	clk := sim.New()
	eng := engine.New(engine.Config{CacheBytes: 1 << 20},
		hdd.NewDeterministic(hdd.DefaultProfile()), clk)
	bad := Config{NodeBytes: 1024, MaxFanout: 16, MaxKeyBytes: 32, MaxValueBytes: 128, Layout: Slotted}
	if _, err := New(bad, eng); err == nil {
		t.Fatal("tiny slotted node accepted")
	}
	packedPartial := Config{NodeBytes: 64 << 10, MaxFanout: 8, MaxKeyBytes: 32, MaxValueBytes: 128, Layout: Packed, QueryMode: SlotOnly}
	if _, err := New(packedPartial, eng); err == nil {
		t.Fatal("packed+slot-only accepted")
	}
}

func TestEpsilonAndQueryModeString(t *testing.T) {
	cfg := configs(64<<10, 1<<20)["slot-only"]
	eps := cfg.Epsilon(120)
	if eps <= 0 || eps >= 1 {
		t.Fatalf("epsilon = %v", eps)
	}
	if WholeNode.String() == "" || MetaPlusSlot.String() == "" || SlotOnly.String() == "" {
		t.Fatal("query mode names empty")
	}
}

// TestMetaPlusSlotQueryIOShape: the intermediate ablation configuration
// reads the meta region plus one slot per level — two IOs per level below
// the root, the "segmented buffers without pivots-in-parent" cost.
func TestMetaPlusSlotQueryIOShape(t *testing.T) {
	cfg := configs(32<<10, 1<<20)["meta+slot"]
	tree := newTestTree(t, cfg)
	const n = 20000
	for i := 0; i < n; i++ {
		tree.Put(key(i), value(i))
	}
	tree.Flush()
	levels := tree.Height()
	if levels < 3 {
		t.Fatalf("tree too shallow (%d)", levels)
	}
	tree.pager().EvictAll(tree.owner)
	tr := &storage.Trace{}
	tree.eng.SetTrace(tr)
	tree.Get(key(n / 2))
	tree.eng.SetTrace(nil)
	if got, want := tr.Len(), 2*(levels-1); got != want {
		t.Fatalf("cold query issued %d IOs, want %d (meta+slot per level): %+v", got, want, tr.Snapshot())
	}
	meta, slot := 0, 0
	for _, r := range tr.Snapshot() {
		switch r.Size {
		case int64(cfg.metaCap()):
			meta++
		case int64(cfg.slotStride()):
			slot++
		default:
			t.Fatalf("unexpected IO size %d", r.Size)
		}
	}
	if meta != levels-1 || slot != levels-1 {
		t.Fatalf("meta=%d slot=%d, want %d each", meta, slot, levels-1)
	}
}

// TestScanIOShape: range queries read whole extents (the paper's range
// bound is O(1+ℓ/B)(1+αB) regardless of node organization).
func TestScanIOShape(t *testing.T) {
	cfg := configs(32<<10, 1<<20)["slot-only"]
	tree := newTestTree(t, cfg)
	const n = 20000
	for i := 0; i < n; i++ {
		tree.Put(key(i), value(i))
	}
	tree.Flush()
	tree.pager().EvictAll(tree.owner)
	tr := &storage.Trace{}
	tree.eng.SetTrace(tr)
	got := tree.ScanN(key(n/2), 200)
	tree.eng.SetTrace(nil)
	if len(got) != 200 {
		t.Fatalf("scan returned %d", len(got))
	}
	if tr.Len() == 0 {
		t.Fatal("scan issued no IOs")
	}
	for _, r := range tr.Snapshot() {
		if r.Size != int64(cfg.NodeBytes) {
			t.Fatalf("scan IO %+v is not a whole extent", r)
		}
	}
}

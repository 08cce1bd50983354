package btree

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"iomodels/internal/engine"
	"iomodels/internal/hdd"
	"iomodels/internal/sim"
	"iomodels/internal/stats"
	"iomodels/internal/workload"
)

func newTestTree(t *testing.T, nodeBytes int, cacheBytes int64) *Tree {
	t.Helper()
	clk := sim.New()
	eng := engine.New(engine.Config{CacheBytes: cacheBytes, Shards: 1},
		hdd.NewDeterministic(hdd.DefaultProfile()), clk)
	tree, err := New(Config{
		NodeBytes:     nodeBytes,
		MaxKeyBytes:   32,
		MaxValueBytes: 128,
	}, eng)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func key(i int) []byte   { return []byte(fmt.Sprintf("key-%08d", i)) }
func value(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

// insert is insertEntry through a scratch page of the leaf's own.
func insert(n *node, k, v []byte) bool { return n.insertEntry(k, v, make([]byte, len(n.page))) }

func TestEmptyTree(t *testing.T) {
	tree := newTestTree(t, 4096, 1<<20)
	if _, ok := tree.Get(key(1)); ok {
		t.Fatal("found key in empty tree")
	}
	if tree.Items() != 0 || tree.Height() != 1 || tree.Nodes() != 1 {
		t.Fatalf("items=%d height=%d nodes=%d", tree.Items(), tree.Height(), tree.Nodes())
	}
	if !tree.Delete(key(1)) == false {
		t.Fatal("deleted from empty tree")
	}
}

func TestPutGetSmall(t *testing.T) {
	tree := newTestTree(t, 4096, 1<<20)
	for i := 0; i < 100; i++ {
		tree.Put(key(i), value(i))
	}
	for i := 0; i < 100; i++ {
		v, ok := tree.Get(key(i))
		if !ok || !bytes.Equal(v, value(i)) {
			t.Fatalf("Get(%d) = %q, %v", i, v, ok)
		}
	}
	if tree.Items() != 100 {
		t.Fatalf("items = %d", tree.Items())
	}
}

func TestOverwrite(t *testing.T) {
	tree := newTestTree(t, 4096, 1<<20)
	tree.Put(key(1), []byte("a"))
	tree.Put(key(1), []byte("bb"))
	v, ok := tree.Get(key(1))
	if !ok || string(v) != "bb" {
		t.Fatalf("got %q", v)
	}
	if tree.Items() != 1 {
		t.Fatalf("items = %d", tree.Items())
	}
}

func TestSplitsGrowHeight(t *testing.T) {
	tree := newTestTree(t, 1024, 1<<20)
	for i := 0; i < 2000; i++ {
		tree.Put(key(i), value(i))
	}
	if tree.Height() < 3 {
		t.Fatalf("height = %d after 2000 inserts into 1KiB nodes", tree.Height())
	}
	if err := tree.Check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, ok := tree.Get(key(i)); !ok {
			t.Fatalf("lost key %d after splits", i)
		}
	}
}

func TestDeleteAndMerge(t *testing.T) {
	tree := newTestTree(t, 1024, 1<<20)
	const n = 1500
	for i := 0; i < n; i++ {
		tree.Put(key(i), value(i))
	}
	nodesBefore := tree.Nodes()
	for i := 0; i < n; i += 2 {
		if !tree.Delete(key(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tree.Delete(key(0)) {
		t.Fatal("double delete succeeded")
	}
	if err := tree.Check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_, ok := tree.Get(key(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) = %v, want %v", i, ok, want)
		}
	}
	if tree.Items() != n/2 {
		t.Fatalf("items = %d", tree.Items())
	}
	// Delete everything: tree must shrink back to a single node.
	for i := 1; i < n; i += 2 {
		tree.Delete(key(i))
	}
	if tree.Items() != 0 {
		t.Fatalf("items = %d after deleting all", tree.Items())
	}
	if tree.Nodes() >= nodesBefore {
		t.Fatalf("no node reclamation: %d -> %d", nodesBefore, tree.Nodes())
	}
	if err := tree.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestScanRange(t *testing.T) {
	tree := newTestTree(t, 2048, 1<<20)
	for i := 0; i < 500; i++ {
		tree.Put(key(i), value(i))
	}
	var got []string
	tree.Scan(key(100), key(110), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 10 {
		t.Fatalf("scan returned %d keys: %v", len(got), got)
	}
	for i, k := range got {
		if k != string(key(100+i)) {
			t.Fatalf("scan[%d] = %s", i, k)
		}
	}
}

func TestScanEarlyStopAndScanN(t *testing.T) {
	tree := newTestTree(t, 2048, 1<<20)
	for i := 0; i < 300; i++ {
		tree.Put(key(i), value(i))
	}
	count := 0
	tree.Scan(nil, nil, func(k, v []byte) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early stop at %d", count)
	}
	ents := tree.ScanN(key(50), 5)
	if len(ents) != 5 || string(ents[0].Key) != string(key(50)) {
		t.Fatalf("ScanN = %v", ents)
	}
}

func TestSmallCacheEviction(t *testing.T) {
	// Cache holds only a few nodes: every operation round-trips through the
	// simulated disk, exercising serialization.
	tree := newTestTree(t, 1024, 8192)
	const n = 1200
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
}

func TestIOChargesTime(t *testing.T) {
	tree := newTestTree(t, 4096, 16384)
	clk := tree.eng.Clock()
	rng := stats.NewRNG(77)
	perm := rng.Perm(2000)
	for _, i := range perm {
		tree.Put(key(i), value(i))
	}
	if clk.Now() == 0 {
		t.Fatal("no virtual time passed despite evictions")
	}
	c := tree.eng.Counters()
	if c.Writes == 0 || c.Reads == 0 {
		t.Fatalf("counters = %+v", c)
	}
	// Every IO is exactly one node.
	if c.BytesRead%4096 != 0 || c.BytesWritten%4096 != 0 {
		t.Fatalf("non-node-sized IO: %+v", c)
	}
}

// TestRandomOpsAgainstModel drives the tree with a random stream of puts,
// deletes and gets, mirrored into a map, checking full agreement and
// structural invariants along the way: after every Put that splits (it adds
// a node), after every Delete (where leaf and internal nodes borrow and
// merge) and every 5,000 ops. A final pass deletes every key, down to a root
// leaf.
func TestRandomOpsAgainstModel(t *testing.T) { randomOpsAgainstModel(t, key, false) }

// TestRandomOpsDistinctHeads is TestRandomOpsAgainstModel over the
// workload's keys, whose 8-byte heads differ (every key(i) below 10,000
// has the head "key-0000"), with Check after every op: a head column out of
// step with its keys misroutes a search here instead of tying and loading
// the key.
func TestRandomOpsDistinctHeads(t *testing.T) {
	spec := workload.DefaultSpec()
	randomOpsAgainstModel(t, func(i int) []byte { return spec.Key(uint64(i)) }, true)
}

// randomOpsAgainstModel runs 30,000 seeded Puts, Deletes and Gets over 2,000
// keys of keyOf against a map, then deletes every key. It runs Check after
// every op that may change the tree's structure, or after every op with
// checkAll, and after every final delete.
func randomOpsAgainstModel(t *testing.T, keyOf func(int) []byte, checkAll bool) {
	tree := newTestTree(t, 1024, 64<<10)
	model := map[string]string{}
	rng := stats.NewRNG(2024)
	const ops = 30000
	for i := 0; i < ops; i++ {
		id := int(rng.Intn(2000))
		k := keyOf(id)
		nodes, structural := tree.Nodes(), checkAll
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // put
			v := fmt.Sprintf("v%d-%d", id, i)
			tree.Put(k, []byte(v))
			model[string(k)] = v
		case 5, 6: // delete
			_, inModel := model[string(k)]
			got := tree.Delete(k)
			if got != inModel {
				t.Fatalf("op %d: Delete(%d) = %v, model %v", i, id, got, inModel)
			}
			delete(model, string(k))
			structural = true
		default: // get
			v, ok := tree.Get(k)
			mv, mok := model[string(k)]
			if ok != mok || (ok && string(v) != mv) {
				t.Fatalf("op %d: Get(%d) = %q,%v; model %q,%v", i, id, v, ok, mv, mok)
			}
		}
		if structural || tree.Nodes() != nodes {
			if err := tree.Check(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		if i%5000 == 4999 {
			if err := tree.Check(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if tree.Items() != len(model) {
				t.Fatalf("op %d: items %d != model %d", i, tree.Items(), len(model))
			}
		}
	}
	// Full scan must equal the sorted model.
	var wantKeys []string
	for k := range model {
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)
	var gotKeys []string
	tree.Scan(nil, nil, func(k, v []byte) bool {
		gotKeys = append(gotKeys, string(k))
		if model[string(k)] != string(v) {
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
	// The lowest third from the top down borrows leaves from the left; the
	// rest from the bottom up empties the leftmost subtree, which borrows
	// leaves and children from the right. Both merge leaves and children.
	var order []int
	for j := len(wantKeys)/3 - 1; j >= 0; j-- {
		order = append(order, j)
	}
	for j := len(wantKeys) / 3; j < len(wantKeys); j++ {
		order = append(order, j)
	}
	for i, j := range order {
		if !tree.Delete([]byte(wantKeys[j])) {
			t.Fatalf("final delete %d: %s missing", i, wantKeys[j])
		}
		if err := tree.Check(); err != nil {
			t.Fatalf("final delete %d: %v", i, err)
		}
	}
	if tree.Items() != 0 || tree.Height() != 1 {
		t.Fatalf("after deleting every key: %d items, height %d", tree.Items(), tree.Height())
	}
}

func TestVariableSizedValues(t *testing.T) {
	tree := newTestTree(t, 2048, 1<<20)
	rng := stats.NewRNG(5)
	sizes := map[int]int{}
	for i := 0; i < 800; i++ {
		id := int(rng.Intn(300))
		sz := int(rng.Intn(128))
		v := bytes.Repeat([]byte{byte(id)}, sz)
		tree.Put(key(id), v)
		sizes[id] = sz
	}
	if err := tree.Check(); err != nil {
		t.Fatal(err)
	}
	for id, sz := range sizes {
		v, ok := tree.Get(key(id))
		if !ok || len(v) != sz {
			t.Fatalf("Get(%d) len %d, want %d", id, len(v), sz)
		}
	}
}

func TestFlushPersistsEverything(t *testing.T) {
	tree := newTestTree(t, 1024, 1<<20)
	for i := 0; i < 500; i++ {
		tree.Put(key(i), value(i))
	}
	tree.Flush()
	// Evict the whole cache; subsequent reads must come from disk intact.
	tree.pager().EvictAll(tree.owner)
	for i := 0; i < 500; i++ {
		v, ok := tree.Get(key(i))
		if !ok || !bytes.Equal(v, value(i)) {
			t.Fatalf("lost key %d across flush+evict", i)
		}
	}
}

func TestTornWriteDetected(t *testing.T) {
	tree := newTestTree(t, 1024, 1<<20)
	for i := 0; i < 200; i++ {
		tree.Put(key(i), value(i))
	}
	tree.Flush()
	tree.pager().EvictAll(tree.owner)
	// Corrupt the count field in the header of the node at extent 0 (the
	// CRC covers the payload, so header corruption must be caught).
	var buf [1]byte
	tree.owner.ReadAt(buf[:], 1)
	buf[0] ^= 0xFF
	tree.owner.WriteAt(buf[:], 1)
	defer func() {
		if recover() == nil {
			t.Fatal("corrupted node was accepted")
		}
	}()
	for i := 0; i < 200; i++ {
		tree.Get(key(i))
	}
}

func TestConfigValidation(t *testing.T) {
	clk := sim.New()
	eng := engine.New(engine.Config{CacheBytes: 1 << 20},
		hdd.NewDeterministic(hdd.DefaultProfile()), clk)
	if _, err := New(Config{NodeBytes: 64, MaxKeyBytes: 32, MaxValueBytes: 128}, eng); err == nil {
		t.Fatal("tiny node accepted")
	}
	if _, err := New(Config{}, eng); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestKeyValidation(t *testing.T) {
	tree := newTestTree(t, 4096, 1<<20)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tree.Put(nil, []byte("v"))
}

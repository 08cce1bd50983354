// The writer's free list (btree.go): a mutation-path load reads a private
// copy into a recycled page, and the owner's eviction of a leaf no reader
// viewed gives the page back. These tests hold what that saves, its bound,
// the views it must never touch, and the faults a read into a page still
// takes.

package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"iomodels/internal/engine"
	"iomodels/internal/hdd"
	"iomodels/internal/sim"
	"iomodels/internal/storage"
)

// TestPutMissAllocatesUnderAPage: on a tree five times its cache, after
// warm-up, a Put that misses its leaf and evicts another allocates well under
// one NodeBytes page: the load reads into a page from the free list, the
// first edit has nothing to copy, and the eviction writes the page in place
// and gives it back.
func TestPutMissAllocatesUnderAPage(t *testing.T) {
	const nb, items, puts = 4096, 20000, 3000
	tree := newTestTree(t, nb, 640<<10)
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 100) }
	for i := 0; i < items; i++ {
		tree.Put(key(i), val(i))
	}
	if data := int64(tree.Nodes()) * nb; data < 5*tree.pager().Budget() {
		t.Fatalf("premise: %d bytes of nodes on a %d-byte cache, want five times the cache", data, tree.pager().Budget())
	}
	rng := rand.New(rand.NewSource(7))
	keys, vals := make([][]byte, 2*puts), make([][]byte, 2*puts)
	for i := range keys {
		id := rng.Intn(items)
		keys[i], vals[i] = key(id), val(id+i)
	}
	for i := 0; i < puts; i++ { // warm-up: fill the free list
		tree.Put(keys[i], vals[i])
	}
	misses := tree.pager().Stats().Misses
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := puts; i < 2*puts; i++ {
		tree.Put(keys[i], vals[i])
	}
	runtime.ReadMemStats(&after)
	if m := tree.pager().Stats().Misses - misses; m < puts/2 {
		t.Fatalf("premise: %d Puts missed %d times, want most of them to", puts, m)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / puts; per > nb/4 {
		t.Errorf("a Put that misses allocates %d bytes, want well under a %d-byte page", per, nb)
	}
}

// TestFreeListStaysUnderCap: however many private leaves the owner evicts at
// once (an EvictAll of a dirty tree), the free list holds at most freePages
// pages, and the next loads take from it.
func TestFreeListStaysUnderCap(t *testing.T) {
	tree := newTestTree(t, 1024, 16<<10)
	peak, took := 0, false
	for i := 0; i < 4000; i++ {
		was := len(tree.pages)
		tree.Put(key(i*7919%4000), value(i))
		took = took || len(tree.pages) < was
		if i%500 == 499 {
			tree.pager().EvictAll(tree.owner)
		}
		if len(tree.pages) > freePages {
			t.Fatalf("op %d: free list holds %d pages, cap %d", i, len(tree.pages), freePages)
		}
		peak = max(peak, len(tree.pages))
	}
	if peak != freePages || !took {
		t.Fatalf("free list peaked at %d of %d pages, taken from %v: the test never filled or used it", peak, freePages, took)
	}
}

// viewScript is a quick-generatable op sequence: each op is (kind, key id,
// value length).
type viewScript []struct {
	Kind uint8
	ID   uint16
	VLen uint8
}

// Generate implements quick.Generator: 1,000-2,000 ops over 600 keys.
func (viewScript) Generate(r *rand.Rand, _ int) reflect.Value {
	s := make(viewScript, 1000+r.Intn(1000))
	for i := range s {
		s[i].Kind, s[i].ID, s[i].VLen = uint8(r.Intn(16)), uint16(r.Intn(600)), uint8(r.Intn(128))
	}
	return reflect.ValueOf(s)
}

// TestQuickViewsOutliveRecycling: on a cache of four 1 KiB nodes, where
// nearly every mutation misses and the owner evicts and recycles leaves all
// the time, every value GetAs returned — to the owner and to a second client —
// and every key and value a Scan handed out keeps its bytes across every
// later Put, Delete and eviction: after each op, and at the end, each still
// equals what was returned. A page a reader viewed is never recycled.
func TestQuickViewsOutliveRecycling(t *testing.T) {
	const nb = 1024
	reused := 0
	f := func(s viewScript) bool {
		eng := engine.FromStore(engine.Config{CacheBytes: 4 * nb, Shards: 1}, storage.NewStore(hdd.NewDeterministic(hdd.DefaultProfile())), sim.New())
		tree, err := New(Config{NodeBytes: nb, MaxKeyBytes: 32, MaxValueBytes: 128}, eng)
		if err != nil {
			t.Fatal(err)
		}
		reader := eng.Detached()
		model := map[string][]byte{}
		var views watch
		check := func(step int) bool {
			for i, p := range views.cur {
				if !bytes.Equal(p, views.snap[i]) {
					t.Logf("step %d: a view returned earlier holds %q, not %q", step, p, views.snap[i])
					return false
				}
			}
			return true
		}
		for step, op := range s {
			k := key(int(op.ID))
			was := len(tree.pages)
			switch op.Kind % 16 {
			case 0, 1, 2, 3, 4, 5, 6:
				v := bytes.Repeat([]byte{byte(step)}, int(op.VLen))
				tree.Put(k, v)
				model[string(k)] = v
			case 7, 8:
				tree.Delete(k)
				delete(model, string(k))
			case 9, 10, 11:
				c := tree.owner
				if op.Kind%2 == 0 {
					c = reader
				}
				got, ok := tree.GetAs(c, k)
				if want, found := model[string(k)]; ok != found || !bytes.Equal(got, want) {
					t.Logf("step %d: Get(%s) = %q,%v want %q,%v", step, k, got, ok, want, found)
					return false
				}
				if ok {
					views.add(got)
				}
			case 12, 13, 14:
				c, n := tree.owner, 0
				if op.Kind%2 == 0 {
					c = reader
				}
				tree.ScanAs(c, k, nil, func(sk, sv []byte) bool {
					views.add(sk)
					views.add(sv)
					n++
					return n < 4
				})
			case 15:
				eng.Pager().EvictAll(tree.owner)
			}
			if len(tree.pages) < was {
				reused++
			}
			if !check(step) {
				return false
			}
		}
		return check(len(s)) && tree.Check() == nil && tree.Items() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
	if reused == 0 {
		t.Fatal("scripts too tame: no load took a page from the free list")
	}
}

// TestReadAtFaultsAsRead: a mutation-path load reads through ReadAt and takes
// the faults a Get's load through Read does, with the same outcome: a
// corrupted read fails the leaf's crc (errTorn), and a failed read panics
// with *storage.ReadFaultError.
func TestReadAtFaultsAsRead(t *testing.T) {
	// outcome builds a one-leaf tree on a FaultStore, evicts it, arms the
	// fault on the next read, and returns what op panicked with.
	outcome := func(arm func(*storage.FaultStore), op func(*Tree)) (r interface{}) {
		fs := storage.NewFaultStore(hdd.NewDeterministic(hdd.DefaultProfile()))
		eng := engine.FromStore(engine.Config{CacheBytes: 1 << 20, Shards: 1}, fs, sim.New())
		tree, err := New(Config{NodeBytes: 4096, MaxKeyBytes: 32, MaxValueBytes: 128}, eng)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			tree.Put(key(i), value(i))
		}
		eng.Pager().EvictAll(eng.Owner())
		arm(fs)
		defer func() { r = recover() }()
		op(tree)
		return nil
	}
	get := func(t *Tree) { t.Get(key(3)) }
	put := func(t *Tree) { t.Put(key(3), value(4)) }
	corrupt := func(fs *storage.FaultStore) { fs.CorruptRead(1) }
	fail := func(fs *storage.FaultStore) { fs.FailRead(1) }

	viaRead, viaReadAt := outcome(corrupt, get), outcome(corrupt, put)
	if s, ok := viaReadAt.(string); !ok || !bytes.Contains([]byte(s), []byte(errTorn.Error())) || !reflect.DeepEqual(viaRead, viaReadAt) {
		t.Errorf("a corrupted read: Put panicked with %v, Get with %v; want the leaf's crc to fail both (%v)", viaReadAt, viaRead, errTorn)
	}
	viaRead, viaReadAt = outcome(fail, get), outcome(fail, put)
	if _, ok := viaReadAt.(*storage.ReadFaultError); !ok || !reflect.DeepEqual(viaRead, viaReadAt) {
		t.Errorf("a failed read: Put panicked with %v, Get with %v; want *storage.ReadFaultError from both", fmt.Sprint(viaReadAt), fmt.Sprint(viaRead))
	}
}

// TestReadersBetweenWritesKeepViews: the way the server runs the tree — a
// round of Puts and Deletes on the owner, then host goroutines reading at
// once through Detached clients, and again — on a cache of four nodes, so
// readers view and evict the writer's private leaves, and the writer evicts
// the rest and recycles the pages no reader viewed. Every value a reader returned
// still holds its bytes at the end. Run it under -race.
func TestReadersBetweenWritesKeepViews(t *testing.T) {
	const nb, keys, readers = 1024, 400, 4
	tree := newTestTree(t, nb, 4*nb)
	type view struct{ got, want []byte }
	var views [readers][]view
	want := map[string][]byte{}
	for round := 0; round < 20; round++ {
		for i := 0; i < 100; i++ {
			id := (round*131 + i*17) % keys
			if i%5 == 4 {
				tree.Delete(key(id))
				delete(want, string(key(id)))
			} else {
				v := bytes.Repeat([]byte{byte(round)}, 1+(id+round)%100)
				tree.Put(key(id), v)
				want[string(key(id))] = v
			}
		}
		done := make(chan struct{})
		for r := 0; r < readers; r++ {
			go func(r int) {
				defer func() { done <- struct{}{} }()
				s := tree.Session(tree.Engine().Detached())
				for i := 0; i < 60; i++ {
					// Keys from the writer's last ops, whose leaves are
					// resident on its private pages, and keys from anywhere.
					id := (round*131 + (99-i%8)*17) % keys
					if i%2 == 1 {
						id = (r*97 + i*13 + round) % keys
					}
					k := key(id)
					if got, ok := s.Get(k); ok {
						views[r] = append(views[r], view{got, want[string(k)]})
					}
				}
			}(r)
		}
		for r := 0; r < readers; r++ {
			<-done
		}
	}
	n := 0
	for r := range views {
		for _, v := range views[r] {
			if !bytes.Equal(v.got, v.want) {
				t.Fatalf("reader %d: a view holds %q, want %q", r, v.got, v.want)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no reader found a key")
	}
}

// The leaf page's three rules (node.go, DESIGN.md §5), checked as a
// property, and the leaf loader fuzzed: a Get's value view and a page handed
// to the store keep their bytes through whatever the tree does next, and a
// load accepts only pages it can search in place.

package btree

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"iomodels/internal/engine"
	"iomodels/internal/hdd"
	"iomodels/internal/kv"
	"iomodels/internal/sim"
	"iomodels/internal/storage"
)

// watch keeps byte slices with a snapshot of each one's bytes.
type watch struct{ cur, snap [][]byte }

func (w *watch) add(p []byte) { w.cur, w.snap = append(w.cur, p), append(w.snap, bytes.Clone(p)) }

// changed returns a slice whose bytes differ from its snapshot, if any, and
// stops watching those that lie in no page in pages (sorted page starts): the
// tree writes only its leaves' pages, so nothing can change them any more.
func (w *watch) changed(pages []uintptr, nb int) ([]byte, bool) {
	keep := 0
	for i, p := range w.cur {
		if !bytes.Equal(p, w.snap[i]) {
			return w.snap[i], true
		}
		a := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
		if j := sort.Search(len(pages), func(j int) bool { return pages[j] > a }) - 1; j >= 0 && a < pages[j]+uintptr(nb) {
			w.cur[keep], w.snap[keep] = p, w.snap[i]
			keep++
		}
	}
	w.cur, w.snap = w.cur[:keep], w.snap[:keep]
	return nil, false
}

// leafPages returns the sorted start addresses of the tree's leaf pages, and
// each leaf's heap as it is now.
func leafPages(t *Tree) ([]uintptr, map[*node]heap) {
	var pages []uintptr
	heaps := map[*node]heap{}
	var walk func(off int64)
	walk = func(off int64) {
		n, pin := t.get(off)
		defer t.unpin(pin)
		if n.leaf {
			pages = append(pages, pageStart(n))
			heaps[n] = heap{pageStart(n), n.low, n.heapSum(n.low)}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	slices.Sort(pages)
	return pages, heaps
}

func pageStart(n *node) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(n.page))) }

// heap is where a leaf's page starts, where its heap starts, and the heap's
// crc.
type heap struct {
	page uintptr
	low  int
	sum  uint32
}

// heapSum is the crc of a leaf's page from low to the footer.
func (n *node) heapSum(low int) uint32 {
	return crc32.ChecksumIEEE(n.page[low : len(n.page)-footerBytes])
}

// repackedInPlace counts the leaves of before whose page is the same one
// and whose heap then differs now: no write but a repack in place changes
// entry bytes on a page.
func repackedInPlace(before map[*node]heap) int {
	moved := 0
	for n, h := range before {
		if pageStart(n) == h.page && n.heapSum(h.low) != h.sum {
			moved++
		}
	}
	return moved
}

// handoverLog is a byte store that watches every page handed to it.
type handoverLog struct {
	storage.ByteStore
	handed watch
}

func (h *handoverLog) Handover(now sim.Time, p []byte, off int64) sim.Time {
	h.handed.add(p)
	return h.ByteStore.Handover(now, p, off)
}

// pageScript is a quick-generatable op sequence over pageKeys keys: each op
// is (kind, key id, value length).
type pageScript []struct {
	Kind uint8
	ID   uint16
	VLen uint8
}

const pageKeys = 1000

// Generate implements quick.Generator: 1,500-3,000 ops, the first half
// insert-heavy and the second delete-heavy, so that a script splits leaves
// and the root, then merges and borrows as the leaves empty again.
func (pageScript) Generate(r *rand.Rand, _ int) reflect.Value {
	s := make(pageScript, 1500+r.Intn(1500))
	for i := range s {
		s[i].Kind, s[i].ID, s[i].VLen = uint8(r.Intn(16)), uint16(r.Intn(pageKeys)), uint8(r.Intn(256))
		if r.Intn(2) == 0 {
			s[i].Kind = 0
			if i > len(s)/2 {
				s[i].Kind = 8
			}
		}
	}
	return reflect.ValueOf(s)
}

// TestQuickLeafPageRules replays scripts of inserts, same-length and resized
// replaces, deletes, Gets, Scans, write-backs (Flush) and reloads (EvictAll)
// on a tree of 1 KiB nodes — so leaves split, merge, borrow, compact, and are
// handed over and lent again — against a sorted map. After every op the tree
// passes Check, every value view a Get or a Scan returned still holds what it
// held when returned, and every page handed to the store still holds what it
// held when handed (a slice is watched until no leaf holds its page). The
// scripts must also have repacked leaves in place, rewriting entry bytes no
// reader had viewed.
func TestQuickLeafPageRules(t *testing.T) {
	const nb = 1024
	peak, shrank, inPlace := 1, false, 0
	f := func(s pageScript) bool {
		store := &handoverLog{ByteStore: storage.NewStore(hdd.NewDeterministic(hdd.DefaultProfile()))}
		eng := engine.FromStore(engine.Config{CacheBytes: 1 << 20, Shards: 1}, store, sim.New())
		tree, err := New(Config{NodeBytes: nb, MaxKeyBytes: 32, MaxValueBytes: 128}, eng)
		if err != nil {
			t.Fatal(err)
		}
		model := map[string][]byte{}
		var views watch
		handovers, maxNodes := 0, 0
		var read []byte // the key the last Get read
		_, heaps := leafPages(tree)
		for step, op := range s {
			k := key(int(op.ID) % pageKeys)
			if op.Kind%16 == 6 && read != nil {
				k = read
			}
			old, present := model[string(k)]
			switch op.Kind % 16 {
			case 0, 1, 2, 3, 4, 5:
				v := bytes.Repeat([]byte{op.VLen}, int(op.VLen)%128)
				tree.Put(k, v)
				model[string(k)] = v
			case 6, 7: // a replace of the same length where the key is present,
				// half of them of the key the last Get read
				v := bytes.Repeat([]byte{op.VLen}, int(op.VLen)%128)
				if present {
					v = bytes.Repeat([]byte{^byte(len(old))}, len(old))
				}
				tree.Put(k, v)
				model[string(k)] = v
			case 8, 9:
				if tree.Delete(k) != present {
					t.Logf("step %d: Delete(%s) disagrees with the model", step, k)
					return false
				}
				delete(model, string(k))
			case 10, 11:
				got, ok := tree.Get(k)
				if ok != present || !bytes.Equal(got, old) {
					t.Logf("step %d: Get(%s) = %q,%v want %q,%v", step, k, got, ok, old, present)
					return false
				}
				views.add(got)
				read = k
			case 12, 13:
				n := 0
				tree.Scan(k, nil, func(sk, sv []byte) bool {
					views.add(sk)
					views.add(sv)
					n++
					return n < 3
				})
			case 14:
				tree.Flush()
			case 15:
				eng.Pager().EvictAll(eng.Owner())
			}
			maxNodes = max(maxNodes, tree.Nodes())
			shrank = shrank || tree.Nodes() < maxNodes
			peak = max(peak, tree.Height())
			handovers += len(store.handed.cur)
			if err := tree.Check(); err != nil {
				t.Logf("step %d: %v", step, err)
				return false
			}
			inPlace += repackedInPlace(heaps)
			var pages []uintptr
			pages, heaps = leafPages(tree)
			if was, ok := views.changed(pages, nb); ok {
				t.Logf("step %d: a view returned earlier no longer holds %q", step, was)
				return false
			}
			if _, ok := store.handed.changed(pages, nb); ok {
				t.Logf("step %d: a page was written after it was handed over", step)
				return false
			}
		}
		var keys []string
		tree.Scan(nil, nil, func(k, v []byte) bool {
			keys = append(keys, string(k))
			return bytes.Equal(v, model[string(k)])
		})
		return len(keys) == len(model) && tree.Items() == len(model) && handovers > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
	if peak < 3 || !shrank || inPlace == 0 {
		t.Fatalf("scripts too tame: peak height %d, nodes merged %v, %d leaves repacked in place", peak, shrank, inPlace)
	}
}

// TestQuickRepackMatchesFill: a leaf repacked in place — one built by
// inserts, replaces and deletes, some of them sealed by a write-back and
// copied by the next edit — is byte for byte, and column for column, the
// leaf newLeaf(nb).fill builds from it, and keeps its page.
func TestQuickRepackMatchesFill(t *testing.T) {
	const nb = 1024
	scratch := make([]byte, nb)
	f := func(ops []struct{ Kind, ID, VLen uint8 }, i, j uint8, seal bool) bool {
		n := newLeaf(nb)
		for _, op := range ops {
			k, v := key(int(op.ID%64)), bytes.Repeat([]byte{op.VLen}, int(op.VLen)%40)
			if op.Kind%4 == 0 {
				n.removeEntry(k)
			} else if n.size+kv.EncodedEntrySize(k, v) <= nb {
				n.insertEntry(k, v, scratch)
			}
		}
		if seal {
			n.encode(nb)
			n.own() // a copy of a sealed page: its header and crc are set
		}
		lo := int(i) % (n.count + 1)
		hi := lo + int(j)%(n.count-lo+1)
		want, page := newLeaf(nb).fill(n, lo, hi), pageStart(n)
		n.repack(lo, hi, scratch)
		if pageStart(n) != page || !bytes.Equal(n.page, want.page) || !slices.Equal(n.heads, want.heads) ||
			n.count != want.count || n.low != want.low || n.size != want.size {
			t.Logf("repack(%d, %d) of %d entries: in place %v, page equal %v, heads equal %v, count %d/%d, low %d/%d, size %d/%d",
				lo, hi, n.count, pageStart(n) == page, bytes.Equal(n.page, want.page), slices.Equal(n.heads, want.heads),
				n.count, want.count, n.low, want.low, n.size, want.size)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// pageCRC recomputes a leaf page's crc, so that a mutated page reaches the
// loader's validation rather than its checksum.
func pageCRC(p []byte) []byte {
	binary.BigEndian.PutUint32(p[len(p)-footerBytes:], crc32.ChecksumIEEE(p[:len(p)-footerBytes]))
	return p
}

// FuzzLeafPage feeds the leaf loader arbitrary 1 KiB pages with a valid crc.
// It must refuse a page, or return a leaf that passes Check, reads back every
// key, and takes an insert and a delete.
func FuzzLeafPage(f *testing.F) {
	const nb = 1024
	real := newLeaf(nb)
	for i := 0; i < 12; i++ {
		insert(real, key(i), value(i))
	}
	page := bytes.Clone(real.encode(nb))
	f.Add(page)
	f.Add(page[:nb/2])                         // torn: the tail never landed
	f.Add(bytes.Clone(newLeaf(nb).encode(nb))) // empty
	mutate := func(fn func(p []byte)) {
		p := bytes.Clone(page)
		fn(p)
		f.Add(pageCRC(p))
	}
	mutate(func(p []byte) { binary.BigEndian.PutUint32(p[headerBytes:], nb-footerBytes-2) })           // an offset past the heap
	mutate(func(p []byte) { binary.BigEndian.PutUint16(p[real.slot(3)+2:], nb) })                      // a length past the page
	mutate(func(p []byte) { binary.BigEndian.PutUint32(p[1:], 40) })                                   // a count larger than the directory
	mutate(func(p []byte) { binary.BigEndian.PutUint32(p[1:], 1<<31) })                                // a count larger than the page
	mutate(func(p []byte) { p[headerBytes+3], p[headerBytes+7] = p[headerBytes+7], p[headerBytes+3] }) // keys out of order
	f.Fuzz(func(t *testing.T, in []byte) {
		p := make([]byte, nb)
		copy(p, in)
		n, err := decodeNode(pageCRC(p))
		if err != nil || !n.leaf {
			return
		}
		tree := newTestTree(t, nb, 1<<20)
		tree.Flush()
		tree.pager().EvictAll(tree.owner)
		tree.owner.WriteAt(p, tree.root)
		if err := tree.Check(); err != nil {
			t.Fatalf("loaded leaf fails Check: %v", err)
		}
		for i := 0; i < n.count; i++ {
			k, v := n.entry(i)
			if got, ok := tree.Get(k); !ok || !bytes.Equal(got, v) {
				t.Fatalf("entry %d: Get(%q) = %q,%v want %q", i, k, got, ok, v)
			}
		}
		if n.size+tree.cfg.maxEntryBytes() <= nb {
			tree.Put([]byte("fuzz"), []byte("value"))
		}
		if n.count > 0 {
			tree.Delete(n.key(0))
		}
		if err := tree.Check(); err != nil {
			t.Fatalf("after an insert and a delete: %v", err)
		}
	})
}

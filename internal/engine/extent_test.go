// Extent ownership, for every tree that decodes its nodes from extents: a
// decoded node's keys, values, pivots and messages are views of the bytes
// its extent's read returned (kv.Dec) — a view of the store's image that Read
// lent, or, on the B-tree's mutation path, a private copy ReadAt filled into
// a page of the tree's own. One seeded stream of puts, deletes, upserts, Gets
// and read-modify-writes on a cache a few nodes large — through flushes,
// splits, merges, write-backs and reloads — checks the two rules that make
// views safe, on the B-tree and on the Bε-tree in every layout and query
// mode:
//
//   - nothing writes into bytes Read lent, neither a tree nor the store's
//     own later writes (TestExtentsNeverWritten); a buffer ReadAt filled
//     belongs to its caller, who may write it and fill it again;
//   - a resident node views at most one extent, lent or filled
//     (TestResidentNodeViewsOneExtent): what moves from one node into another
//     is copied as it moves.

package engine_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"iomodels/internal/betree"
	"iomodels/internal/btree"
	"iomodels/internal/engine"
	"iomodels/internal/hdd"
	"iomodels/internal/kv"
	"iomodels/internal/sim"
	"iomodels/internal/storage"
)

// extentTree is what the stream drives and checks.
type extentTree interface {
	engine.Dictionary
	Nodes() int
	Items() int
	Flush()
	Check() error
}

// extentCase is one tree configuration under test.
type extentCase struct {
	name      string
	nodeBytes int
	open      func(*engine.Engine) (extentTree, error)
}

func extentCases() []extentCase {
	bt := btree.Config{NodeBytes: 1024, MaxKeyBytes: 32, MaxValueBytes: 128}
	cases := []extentCase{{"btree", bt.NodeBytes, func(e *engine.Engine) (extentTree, error) {
		t, err := btree.New(bt, e)
		return t, err
	}}}
	base := betree.Config{NodeBytes: 4096, MaxFanout: 4, MaxKeyBytes: 32, MaxValueBytes: 128}
	packed, whole, metaSlot := base, base, base
	packed.Layout, packed.QueryMode = betree.Packed, betree.WholeNode
	whole.Layout, whole.QueryMode = betree.Slotted, betree.WholeNode
	metaSlot.Layout, metaSlot.QueryMode = betree.Slotted, betree.MetaPlusSlot
	for _, c := range []struct {
		name string
		cfg  betree.Config
	}{{"betree-packed", packed}, {"betree-slotted-whole", whole}, {"betree-meta+slot", metaSlot}, {"betree-slot-only", base.Optimized()}} {
		cfg := c.cfg
		cases = append(cases, extentCase{c.name, cfg.NodeBytes, func(e *engine.Engine) (extentTree, error) {
			t, err := betree.New(cfg, e)
			return t, err
		}})
	}
	return cases
}

// runExtentStream drives tree through the seeded stream, calling check every
// hundred operations and once at the end, and then requires the stream to
// have evicted, written back and shrunk the tree, and the tree to agree with
// a model.
func runExtentStream(t *testing.T, tree extentTree, eng *engine.Engine, check func()) {
	t.Helper()
	rng := rand.New(rand.NewSource(25))
	model := map[string][]byte{}
	const keyspace = 1500
	up, _ := tree.(engine.Upserter)
	peakNodes := 0
	for i := 0; i < 12000; i++ {
		k := key(rng.Intn(keyspace))
		switch r := rng.Intn(20); {
		case r < 11:
			v := val(rng.Intn(1 << 20))
			tree.Put(k, v)
			model[string(k)] = v
		case r < 14:
			tree.Delete(k)
			delete(model, string(k))
		case r < 17 && up != nil:
			up.Upsert(k, 3)
			old, ok := model[string(k)]
			model[string(k)], _ = kv.Message{Kind: kv.Upsert, Value: kv.UpsertDelta(3)}.Apply(old, ok)
		case r == 19:
			// A plain Get: the leaf it loads stays lent until a write.
			got, ok := tree.Get(k)
			if want, found := model[string(k)]; ok != found || !bytes.Equal(got, want) {
				t.Fatalf("op %d: Get(%s) = %q,%v want %q,%v", i, k, got, ok, want, found)
			}
		default:
			// Read-modify-write: extend the value Get returned in place.
			old, ok := tree.Get(k)
			if want, found := model[string(k)]; ok != found || !bytes.Equal(old, want) {
				t.Fatalf("op %d: Get(%s) = %q,%v want %q,%v", i, k, old, ok, want, found)
			}
			if len(old) >= 100 {
				old = nil
			}
			v := append(old, '+')
			tree.Put(k, v)
			model[string(k)] = bytes.Clone(v)
		}
		peakNodes = max(peakNodes, tree.Nodes())
		if i%100 == 99 {
			check()
		}
	}
	// Reload every node, then empty most of the key space from both ends
	// inward, so that nodes decoded from their extents underflow, merge, and
	// borrow from a right sibling (the left half) and a left one (the right).
	eng.Pager().EvictAll(eng.Owner())
	for j := 0; j < keyspace; j++ {
		i := j / 2
		if j%2 == 1 {
			i = keyspace - 1 - j/2
		}
		if i%10 != 0 {
			tree.Delete(key(i))
			delete(model, string(key(i)))
		}
		if j%100 == 99 {
			check()
		}
	}
	if s, ok := tree.(interface{ Settle() }); ok {
		s.Settle()
	}
	tree.Flush()
	check()

	if st := eng.Pager().Stats(); st.Writebacks == 0 || st.Evictions == 0 || tree.Nodes() >= peakNodes {
		t.Fatalf("stream too tame: %d writebacks, %d evictions, nodes %d (peak %d)", st.Writebacks, st.Evictions, tree.Nodes(), peakNodes)
	}
	if err := tree.Check(); err != nil {
		t.Fatal(err)
	}
	if tree.Items() != len(model) {
		t.Fatalf("items = %d, model has %d", tree.Items(), len(model))
	}
	for k, want := range model {
		if got, ok := tree.Get([]byte(k)); !ok || !bytes.Equal(got, want) {
			t.Fatalf("Get(%s) = %q,%v want %q", k, got, ok, want)
		}
	}
}

// openExtentTree puts c's tree over store, on a cache of eight nodes.
func openExtentTree(t *testing.T, c extentCase, store storage.ByteStore) (extentTree, *engine.Engine) {
	t.Helper()
	eng := engine.FromStore(engine.Config{CacheBytes: int64(8 * c.nodeBytes), Shards: 1}, store, sim.New())
	tree, err := c.open(eng)
	if err != nil {
		t.Fatal(err)
	}
	return tree, eng
}

// readLog is a byte store that keeps what every Read lent (a view of the
// image, or a copy where the range spans runs), with a snapshot of its bytes;
// the start address of every whole-node buffer a Read lent or a ReadAt filled
// (kept alive, a buffer keeps its addresses), and which of them Read lent;
// and the offset of every node extent read or written.
type readLog struct {
	storage.ByteStore
	nodeBytes   int
	bufs, snaps [][]byte
	starts      []uintptr // sorted when sorted is set
	sorted      bool
	lent        map[uintptr]bool
	offs        map[int64]bool
}

func newReadLog(nodeBytes int) *readLog {
	return &readLog{ByteStore: storage.NewStore(hdd.NewDeterministic(hdd.DefaultProfile())), nodeBytes: nodeBytes, lent: map[uintptr]bool{}, offs: map[int64]bool{}}
}

func (r *readLog) Read(now sim.Time, off int64, n int) ([]byte, sim.Time) {
	p, done := r.ByteStore.Read(now, off, n)
	r.bufs = append(r.bufs, p)
	r.snaps = append(r.snaps, bytes.Clone(p))
	r.node(p, off, true)
	return p, done
}

func (r *readLog) ReadAt(now sim.Time, p []byte, off int64) sim.Time {
	done := r.ByteStore.ReadAt(now, p, off)
	r.node(p, off, false)
	return done
}

// node logs p, which a read of a whole node at off lent or filled.
func (r *readLog) node(p []byte, off int64, lent bool) {
	if len(p) != r.nodeBytes {
		return
	}
	a := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	if lent {
		r.lent[a] = true
	}
	r.starts, r.sorted = append(r.starts, a), false
	r.offs[off] = true
}

func (r *readLog) WriteAt(now sim.Time, p []byte, off int64) sim.Time {
	if len(p) == r.nodeBytes {
		r.offs[off] = true
	}
	return r.ByteStore.WriteAt(now, p, off)
}

func (r *readLog) Handover(now sim.Time, p []byte, off int64) sim.Time {
	if len(p) == r.nodeBytes {
		r.offs[off] = true
	}
	return r.ByteStore.Handover(now, p, off)
}

// extentOf returns the start of the whole-node read buffer holding address a.
func (r *readLog) extentOf(a uintptr) (uintptr, bool) {
	if !r.sorted {
		slices.Sort(r.starts)
		r.starts = slices.Compact(r.starts) // ReadAt fills a page again and again
		r.sorted = true
	}
	i := sort.Search(len(r.starts), func(i int) bool { return r.starts[i] > a }) - 1
	if i < 0 || a >= r.starts[i]+uintptr(r.nodeBytes) {
		return 0, false
	}
	return r.starts[i], true
}

// extentsViewed returns the whole-node read buffers that the byte slices
// reachable from obj (a tree's resident node; reflection reads its
// unexported fields, and what its atomic pointers hold) point into. An empty
// slice counts too: a zero-capacity view points at the start of the buffer it
// was cut from, and keeps it alive.
func (r *readLog) extentsViewed(obj interface{}) map[uintptr]bool {
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			if v.Type().PkgPath() == "sync/atomic" && strings.HasPrefix(v.Type().Name(), "Pointer[") {
				if p := v.FieldByName("v").UnsafePointer(); p != nil {
					walk(reflect.NewAt(v.Field(0).Type().Elem().Elem(), p).Elem())
				}
				return
			}
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Value())
			}
		case reflect.Slice:
			if v.Type().Elem().Kind() != reflect.Uint8 {
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i))
				}
			} else if start, ok := r.extentOf(v.Pointer()); ok {
				seen[start] = true
			}
		}
	}
	walk(reflect.ValueOf(obj))
	return seen
}

// TestExtentsNeverWritten: nothing the tree does after a Read — buffering,
// flushing, splitting, merging, writing back and reading again, or a caller
// appending to a value Get returned — writes into the buffer the Read lent:
// after the stream, every such buffer still holds what the Read returned. A
// buffer a ReadAt filled is its caller's and is not checked.
func TestExtentsNeverWritten(t *testing.T) {
	for _, c := range extentCases() {
		t.Run(c.name, func(t *testing.T) {
			reads := newReadLog(c.nodeBytes)
			tree, eng := openExtentTree(t, c, reads)
			runExtentStream(t, tree, eng, func() {})
			if len(reads.bufs) == 0 {
				t.Fatal("the stream read nothing")
			}
			for i, b := range reads.bufs {
				if !bytes.Equal(b, reads.snaps[i]) {
					t.Fatalf("read %d of %d: its buffer was written after the read", i, len(reads.bufs))
				}
			}
		})
	}
}

// TestResidentNodeViewsOneExtent: a resident node holds views of at most one
// extent, lent by Read or filled by ReadAt — the one it was decoded from or,
// for a node a split built and that has not been reloaded since, the one the
// split node was decoded from (or the writer's page the split built it on).
// Whatever a flush, merge, borrow or promotion moves into a node from
// another is copied as it moves, so a node that stays resident does not
// collect the extents of the nodes that fed it. Every hundred operations the
// tree is written back (so every resident node's offset is known) and each
// resident node's byte slices are traced to the read buffers they point into.
func TestResidentNodeViewsOneExtent(t *testing.T) {
	for _, c := range extentCases() {
		t.Run(c.name, func(t *testing.T) {
			reads := newReadLog(c.nodeBytes)
			tree, eng := openExtentTree(t, c, reads)
			owner, checked, traced, lent := eng.Owner(), 0, 0, 0
			runExtentStream(t, tree, eng, func() {
				tree.Flush()
				offs := make([]int64, 0, len(reads.offs))
				for off := range reads.offs {
					offs = append(offs, off)
				}
				slices.Sort(offs) // a probe touches the LRU: keep the stream deterministic
				for _, off := range offs {
					obj, pin := eng.Pager().TryPin(owner, engine.PageID(off))
					if pin == nil {
						continue
					}
					seen := reads.extentsViewed(obj)
					if len(seen) > 1 {
						t.Fatalf("the node at %d views %d extents", off, len(seen))
					}
					pin.Unpin(owner)
					checked++
					traced += len(seen)
					for a := range seen {
						if reads.lent[a] {
							lent++
						}
					}
				}
			})
			// A read that bypassed the log would leave every node tracing to
			// nothing, and the bound would hold vacuously; the stream's Gets
			// lend, so some resident node views an extent Read lent.
			if checked == 0 || traced == 0 || lent == 0 {
				t.Fatalf("%d resident nodes checked, %d traced to a read, %d to one Read lent", checked, traced, lent)
			}
		})
	}
}

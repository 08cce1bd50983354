package engine

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"iomodels/internal/sim"
	"iomodels/internal/storage"
)

// flatDevice is a trivial timing device: every IO costs 1ms + 1ns/byte.
type flatDevice struct{ capacity int64 }

func (d flatDevice) Access(now sim.Time, _ storage.Op, _, size int64) sim.Time {
	return now + sim.Millisecond + sim.Time(size)
}
func (d flatDevice) Capacity() int64 { return d.capacity }
func (d flatDevice) Name() string    { return "flat" }

// fakeLoader backs the pager with a map and counts traffic. No IO is
// charged, so tests drive the pager with any client.
type fakeLoader struct {
	data   map[PageID]string
	loads  int
	stores int
}

func newFakeLoader() *fakeLoader { return &fakeLoader{data: map[PageID]string{}} }

func (l *fakeLoader) Load(_ *Client, id PageID) (interface{}, int64) {
	l.loads++
	v, ok := l.data[id]
	if !ok {
		panic(fmt.Sprintf("load of unknown page %d", id))
	}
	return v, int64(len(v))
}

func (l *fakeLoader) Store(_ *Client, id PageID, obj interface{}) {
	l.stores++
	l.data[id] = obj.(string)
}

// newTestPager builds a single-shard pager (deterministic LRU) plus a
// clock client to drive it.
func newTestPager(budget int64) (*Pager, *Client) {
	e := New(Config{CacheBytes: budget, Shards: 1}, flatDevice{1 << 30}, sim.New())
	return e.Pager(), e.Owner()
}

func TestGetLoadsOnceWhileResident(t *testing.T) {
	l := newFakeLoader()
	l.data[1] = "aaaa"
	p, c := newTestPager(100)
	obj, pin := p.Pin(c, l, 1)
	if got := obj.(string); got != "aaaa" {
		t.Fatalf("got %q", got)
	}
	pin.Unpin(c)
	_, pin = p.Pin(c, l, 1)
	pin.Unpin(c)
	if l.loads != 1 {
		t.Fatalf("loads = %d, want 1", l.loads)
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s.ShardStats)
	}
	if s.HitRatio() != 0.5 {
		t.Fatalf("hit ratio = %v", s.HitRatio())
	}
}

func TestLRUEviction(t *testing.T) {
	l := newFakeLoader()
	for i := PageID(1); i <= 3; i++ {
		l.data[i] = "xxxxxxxxxx" // 10 bytes each
	}
	p, c := newTestPager(25)
	for i := PageID(1); i <= 2; i++ {
		_, pin := p.Pin(c, l, i)
		pin.Unpin(c)
	}
	// Touch 1 so 2 becomes LRU.
	_, pin := p.Pin(c, l, 1)
	pin.Unpin(c)
	_, pin = p.Pin(c, l, 3) // must evict 2
	pin.Unpin(c)
	if !p.Contains(1) || p.Contains(2) || !p.Contains(3) {
		t.Fatalf("wrong eviction victim: 1=%v 2=%v 3=%v", p.Contains(1), p.Contains(2), p.Contains(3))
	}
}

func TestDirtyWritebackOnEviction(t *testing.T) {
	l := newFakeLoader()
	l.data[1] = "aaaaaaaaaa"
	l.data[2] = "bbbbbbbbbb"
	p, c := newTestPager(15)
	_, pin := p.Pin(c, l, 1)
	pin.MarkDirty(c, 10)
	pin.Unpin(c)
	_, pin = p.Pin(c, l, 2) // evicts 1, which must be written back
	pin.Unpin(c)
	if l.stores != 1 {
		t.Fatalf("stores = %d, want 1", l.stores)
	}
	if p.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", p.Stats().Writebacks)
	}
}

func TestCleanEvictionDoesNotWrite(t *testing.T) {
	l := newFakeLoader()
	l.data[1] = "aaaaaaaaaa"
	l.data[2] = "bbbbbbbbbb"
	p, c := newTestPager(15)
	_, pin := p.Pin(c, l, 1)
	pin.Unpin(c)
	_, pin = p.Pin(c, l, 2)
	pin.Unpin(c)
	if l.stores != 0 {
		t.Fatalf("stores = %d, want 0", l.stores)
	}
}

func TestPinnedNotEvicted(t *testing.T) {
	l := newFakeLoader()
	l.data[1] = "aaaaaaaaaa"
	l.data[2] = "bbbbbbbbbb"
	p, c := newTestPager(15)
	_, pin1 := p.Pin(c, l, 1) // stays pinned
	_, pin2 := p.Pin(c, l, 2) // over budget, but 1 is pinned
	if !p.Contains(1) {
		t.Fatal("pinned object was evicted")
	}
	if p.Stats().PeakOver <= 0 {
		t.Fatal("overcommit not recorded")
	}
	pin1.Unpin(c)
	pin2.Unpin(c)
}

func TestPutAndDrop(t *testing.T) {
	l := newFakeLoader()
	p, c := newTestPager(100)
	p.Put(c, l, 5, "new", 3).Unpin(c)
	p.Drop(c, 5)
	if p.Contains(5) {
		t.Fatal("dropped object still resident")
	}
	if l.stores != 0 {
		t.Fatal("drop wrote back")
	}
	p.Drop(c, 5) // idempotent
}

func TestDropPinnedPanics(t *testing.T) {
	p, c := newTestPager(100)
	p.Put(c, newFakeLoader(), 1, "x", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Drop(c, 1)
}

func TestPutDuplicatePanics(t *testing.T) {
	p, c := newTestPager(100)
	l := newFakeLoader()
	p.Put(c, l, 1, "x", 1).Unpin(c)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Put(c, l, 1, "y", 1)
}

func TestPutCleanReturnsResident(t *testing.T) {
	p, c := newTestPager(100)
	l := newFakeLoader()
	put := p.Put(c, l, 1, "canonical", 9)
	got, pin := p.PutClean(c, l, 1, "duplicate", 9)
	if got.(string) != "canonical" || pin != put {
		t.Fatalf("PutClean returned %q, want resident object", got)
	}
	pin.Unpin(c)
	put.Unpin(c)
}

func TestFlushWritesAllDirty(t *testing.T) {
	l := newFakeLoader()
	p, c := newTestPager(100)
	p.Put(c, l, 1, "a", 1).Unpin(c)
	pin2 := p.Put(c, l, 2, "b", 1)
	p.Flush(c)
	if l.stores != 2 {
		t.Fatalf("stores = %d, want 2", l.stores)
	}
	// Second flush writes nothing: all clean now.
	p.Flush(c)
	if l.stores != 2 {
		t.Fatalf("stores after clean flush = %d", l.stores)
	}
	pin2.Unpin(c)
}

// TestMarkDirtyResizes: MarkDirty charges the new size and, for a loader
// without StoreSize, counts it in DirtyBytes at once.
func TestMarkDirtyResizes(t *testing.T) {
	p, c := newTestPager(100)
	pin := p.Put(c, newFakeLoader(), 1, "x", 10)
	pin.MarkDirty(c, 30)
	if p.Used() != 30 || p.DirtyBytes() != 30 {
		t.Fatalf("used = %d, dirty bytes = %d, want 30 and 30", p.Used(), p.DirtyBytes())
	}
	pin.Release(c, 20)
	if p.Used() != 20 || p.DirtyBytes() != 20 {
		t.Fatalf("after Release: used = %d, dirty bytes = %d, want 20 and 20", p.Used(), p.DirtyBytes())
	}
}

func TestTryPin(t *testing.T) {
	l := newFakeLoader()
	l.data[1] = "aaaa"
	p, c := newTestPager(100)
	if _, pin := p.TryPin(c, 1); pin != nil {
		t.Fatal("TryPin hit on empty pager")
	}
	_, pin := p.Pin(c, l, 1)
	pin.Unpin(c)
	obj, again := p.TryPin(c, 1)
	if again != pin || obj.(string) != "aaaa" {
		t.Fatal("TryPin missed resident object")
	}
	again.Unpin(c)
	if l.loads != 1 {
		t.Fatalf("TryPin triggered a load: %d", l.loads)
	}
}

// TestIDFormsMatchPins: Get, Unpin and MarkDirty by id act on the item
// the pin stands for.
func TestIDFormsMatchPins(t *testing.T) {
	l := newFakeLoader()
	l.data[1] = "aaaa"
	p, c := newTestPager(100)
	if got := p.Get(c, l, 1); got != "aaaa" {
		t.Fatalf("Get returned %v", got)
	}
	p.MarkDirty(c, 1, 30)
	if p.Used() != 30 || p.DirtyBytes() != 30 {
		t.Fatalf("used = %d, dirty bytes = %d, want 30 and 30", p.Used(), p.DirtyBytes())
	}
	p.Unpin(c, 1)
	p.Flush(c)
	p.EvictAll(c)
	if p.Contains(1) || l.stores != 1 {
		t.Fatalf("resident %v after EvictAll, %d stores; want gone and 1", p.Contains(1), l.stores)
	}
}

func TestPutCleanEvictsWithoutWrite(t *testing.T) {
	l := newFakeLoader()
	l.data[2] = "bbbbbbbbbb"
	p, c := newTestPager(15)
	_, pin := p.PutClean(c, l, 1, "partial", 10)
	pin.Unpin(c)
	_, pin = p.Pin(c, l, 2) // evicts 1
	pin.Unpin(c)
	if l.stores != 0 {
		t.Fatal("clean object was written back")
	}
}

// TestGrowAndSwapClean: Grow and Swap change a clean object's charge only
// while the page still holds the object the caller read, and never make it
// dirty.
func TestGrowAndSwapClean(t *testing.T) {
	l := newFakeLoader()
	p, c := newTestPager(100)
	_, pin := p.PutClean(c, l, 1, "x", 5)
	pin.Grow(c, "x", 45)
	if p.Used() != 50 {
		t.Fatalf("used = %d after Grow, want 50", p.Used())
	}
	if got := pin.Swap(c, "x", "y", 70); got != "y" || p.Used() != 70 {
		t.Fatalf("Swap returned %v, used %d; want y, 70", got, p.Used())
	}
	// A reader still holding "x" lost the race: it grows and swaps nothing.
	pin.Grow(c, "x", 9)
	if got := pin.Swap(c, "x", "z", 90); got != "y" || p.Used() != 70 {
		t.Fatalf("stale Swap returned %v, used %d; want y, 70", got, p.Used())
	}
	pin.Unpin(c)
	p.EvictAll(c)
	if l.stores != 0 {
		t.Fatal("grown clean object was written back")
	}
}

func TestUnpinUnderflowPanics(t *testing.T) {
	p, c := newTestPager(100)
	pin := p.Put(c, newFakeLoader(), 1, "x", 1)
	pin.Unpin(c)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pin.Unpin(c)
}

func TestEvictAll(t *testing.T) {
	l := newFakeLoader()
	p, c := newTestPager(100)
	p.Put(c, l, 1, "a", 1).Unpin(c)
	p.Put(c, l, 2, "b", 1).Unpin(c)
	p.EvictAll(c)
	if p.Used() != 0 {
		t.Fatalf("used = %d after EvictAll", p.Used())
	}
	if l.stores != 2 {
		t.Fatalf("stores = %d", l.stores)
	}
}

func TestPinKeepsEntryOffLRU(t *testing.T) {
	l := newFakeLoader()
	l.data[1] = "aaaaaaaaaa"
	l.data[2] = "bbbbbbbbbb"
	p, c := newTestPager(15)
	_, pin1 := p.Pin(c, l, 1)
	pin1.Hold() // a second pin, which outlives the first
	pin1.Unpin(c)
	_, pin2 := p.Pin(c, l, 2)
	if !p.Contains(1) {
		t.Fatal("explicitly pinned object evicted")
	}
	pin1.Unpin(c)
	pin2.Unpin(c)
}

func TestNewPanicsOnBadBudget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{CacheBytes: 0}, flatDevice{1 << 20}, sim.New())
}

func TestShardingSplitsBudget(t *testing.T) {
	e := New(Config{CacheBytes: 64 << 20, Shards: 4}, flatDevice{1 << 30}, sim.New())
	p := e.Pager()
	if len(p.shards) != 4 {
		t.Fatalf("shards = %d", len(p.shards))
	}
	if p.Budget() != 64<<20 {
		t.Fatalf("budget = %d", p.Budget())
	}
	// Auto shard count scales with budget and clamps to [1, 16].
	if n := len(New(Config{CacheBytes: 1 << 20}, flatDevice{1 << 30}, sim.New()).Pager().shards); n != 1 {
		t.Fatalf("auto shards for 1 MiB = %d", n)
	}
	if n := len(New(Config{CacheBytes: 1 << 30}, flatDevice{1 << 31}, sim.New()).Pager().shards); n != 16 {
		t.Fatalf("auto shards for 1 GiB = %d", n)
	}
}

// trackingLoader backs the pager and remembers the last stored content per
// page, to verify no dirty data is lost.
type trackingLoader struct {
	disk map[PageID]int // page -> version on "disk"
}

func (l *trackingLoader) Load(_ *Client, id PageID) (interface{}, int64) {
	v, ok := l.disk[id]
	if !ok {
		panic(fmt.Sprintf("load of never-written page %d", id))
	}
	return v, 10
}

func (l *trackingLoader) Store(_ *Client, id PageID, obj interface{}) {
	l.disk[id] = obj.(int)
}

func TestQuickPagerNeverLosesWrites(t *testing.T) {
	type op struct {
		Kind uint8
		Page uint8
	}
	f := func(script []op) bool {
		l := &trackingLoader{disk: map[PageID]int{}}
		p, c := newTestPager(55) // room for ~5 unpinned pages of 10 bytes
		latest := map[PageID]int{}
		version := 0
		for _, o := range script {
			id := PageID(o.Page % 12)
			switch o.Kind % 3 {
			case 0: // create or rewrite
				version++
				if p.Contains(id) {
					p.Drop(c, id)
				}
				if _, onDisk := l.disk[id]; !onDisk {
					l.disk[id] = -1 // placeholder so Load never panics
				}
				p.Put(c, l, id, version, 10).Release(c, 10)
				latest[id] = version
			case 1: // read through
				if _, ok := latest[id]; !ok {
					continue
				}
				got, pin := p.Pin(c, l, id)
				pin.Unpin(c)
				if got.(int) != latest[id] {
					return false
				}
			case 2: // flush everything
				p.Flush(c)
			}
			if p.Used() < 0 {
				return false
			}
		}
		// After a full flush, the disk must hold the latest version of
		// every page.
		p.Flush(c)
		for id, want := range latest {
			if l.disk[id] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDirtyBytesIsShardSum: random Put, MarkDirty, Flush and Drop
// sequences on a four-shard pager small enough that Puts evict (and write
// back) dirty pages keep DirtyBytes, the pager's running total, equal to the
// sum of its shards' dirty bytes after every operation.
func TestQuickDirtyBytesIsShardSum(t *testing.T) {
	type op struct {
		Kind uint8
		Page uint8
		Size uint8
	}
	f := func(script []op) bool {
		e := New(Config{CacheBytes: 400, Shards: 4}, flatDevice{1 << 30}, sim.New())
		p, c, l := e.Pager(), e.Owner(), newFakeLoader()
		for _, o := range script {
			id, size := PageID(o.Page%32), int64(o.Size%40)+1
			switch o.Kind % 4 {
			case 0: // create or rewrite
				p.Drop(c, id)
				p.Put(c, l, id, strings.Repeat("x", int(size)), size).Unpin(c)
			case 1: // dirty a resident or written-back page, resized
				if _, ok := l.data[id]; !ok && !p.Contains(id) {
					continue
				}
				_, pin := p.Pin(c, l, id)
				pin.Release(c, size)
			case 2:
				p.Flush(c)
			case 3:
				p.Drop(c, id)
			}
			var sum int64
			for _, sh := range p.shards {
				sum += sh.dirtyBytes
			}
			if got := p.DirtyBytes(); got != sum || sum < 0 {
				t.Logf("DirtyBytes %d, shards sum to %d", got, sum)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBudgetRespectedWhenUnpinned(t *testing.T) {
	f := func(pages []uint8) bool {
		l := &trackingLoader{disk: map[PageID]int{}}
		p, c := newTestPager(50)
		for i, page := range pages {
			id := PageID(page)
			if p.Contains(id) {
				continue
			}
			l.disk[id] = i
			p.Put(c, l, id, i, 10).Unpin(c)
			// With nothing pinned, the pager must stay within budget.
			if p.Used() > 50 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStatsCountExactlyOnePerAccess pins down the accounting contract:
// every logical access — Pin, TryPin hit, PutClean — produces exactly one
// Hits or Misses increment, and inserts (Put) and TryPin absences produce
// none. Probe-style callers (the Bε-tree's TryPin-then-Pin upgrade path)
// would otherwise inflate the miss ratio.
func TestStatsCountExactlyOnePerAccess(t *testing.T) {
	l := newFakeLoader()
	l.data[1] = "aa"
	p, c := newTestPager(100)

	check := func(step string, hits, misses int64) {
		t.Helper()
		s := p.Stats()
		if s.Hits != hits || s.Misses != misses {
			t.Fatalf("%s: hits/misses = %d/%d, want %d/%d", step, s.Hits, s.Misses, hits, misses)
		}
	}

	if _, pin := p.TryPin(c, 1); pin != nil {
		t.Fatal("unexpected resident")
	}
	check("TryPin absent counts nothing", 0, 0)

	_, pin := p.Pin(c, l, 1)
	pin.Unpin(c)
	check("Pin cold is one miss", 0, 1)

	_, pin = p.Pin(c, l, 1)
	pin.Unpin(c)
	check("Pin warm is one hit", 1, 1)

	if _, pin = p.TryPin(c, 1); pin == nil {
		t.Fatal("expected resident")
	}
	pin.Unpin(c)
	check("TryPin hit is one hit", 2, 1)

	p.Put(c, l, 2, "bb", 2).Unpin(c)
	check("Put insert counts nothing", 2, 1)

	_, pin = p.PutClean(c, l, 3, "cc", 2)
	pin.Unpin(c)
	check("PutClean fresh is one miss", 2, 2)

	_, pin = p.PutClean(c, l, 3, "dd", 2)
	pin.Unpin(c)
	check("PutClean resident is one hit", 3, 2)

	s := p.Stats()
	if s.Hits+s.Misses != 5 {
		t.Fatalf("total accesses = %d, want 5", s.Hits+s.Misses)
	}
}

// TestNoStealKeepsDirtyResident: under the durability layer's no-steal
// policy, dirty pages must survive cache pressure (they may only reach the
// device through a checkpoint), clean pages still evict, and the overrun is
// recorded in PeakOver.
func TestNoStealKeepsDirtyResident(t *testing.T) {
	l := newFakeLoader()
	p, c := newTestPager(20)
	p.noSteal = true

	p.Put(c, l, 1, "dirty-one", 9).Unpin(c) // dirty insert
	l.data[2] = "cleanclean"
	_, pin := p.Pin(c, l, 2) // clean resident
	pin.Unpin(c)
	l.data[3] = "cleanclean"
	_, pin = p.Pin(c, l, 3) // pressure: must evict 2, not 1
	pin.Unpin(c)

	if l.stores != 0 {
		t.Fatalf("dirty page written back under no-steal (stores = %d)", l.stores)
	}
	if !p.Contains(1) {
		t.Fatal("dirty page evicted under no-steal")
	}
	if p.Contains(2) {
		t.Fatal("clean page not evicted under pressure")
	}

	// Fill with dirty pages only: nothing evictable, pager runs over budget.
	p.Put(c, l, 4, "dirty-two-ooooo", 15).Unpin(c)
	if p.Stats().PeakOver <= 0 {
		t.Fatalf("PeakOver = %d, want > 0 with unevictable dirty set", p.Stats().PeakOver)
	}
	if !p.Contains(1) || !p.Contains(4) {
		t.Fatal("dirty pages lost while over budget")
	}

	// Flush cleans them; eviction works again.
	p.Flush(c)
	if l.stores == 0 {
		t.Fatal("flush wrote nothing")
	}
	_, pin = p.Pin(c, l, 2)
	pin.Unpin(c)
	if p.Contains(1) && p.Contains(4) && p.Contains(2) && p.Used() > 20+15 {
		t.Fatal("eviction still stuck after flush")
	}
}

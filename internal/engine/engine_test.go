package engine

import (
	"encoding/binary"
	"sync"
	"testing"

	"iomodels/internal/sim"
	"iomodels/internal/storage"
)

// parallelDevice has P independent lanes (offset % P picks the lane); each
// IO occupies its lane for 1ms. k concurrent clients on distinct lanes
// should finish in ~1ms of virtual time, not k ms.
type parallelDevice struct {
	lanes    []sim.Time
	capacity int64
}

func newParallelDevice(p int, capacity int64) *parallelDevice {
	return &parallelDevice{lanes: make([]sim.Time, p), capacity: capacity}
}

func (d *parallelDevice) Access(now sim.Time, _ storage.Op, off, _ int64) sim.Time {
	lane := int(off/512) % len(d.lanes)
	start := now
	if d.lanes[lane] > start {
		start = d.lanes[lane]
	}
	done := start + sim.Millisecond
	d.lanes[lane] = done
	return done
}
func (d *parallelDevice) Capacity() int64 { return d.capacity }
func (d *parallelDevice) Name() string    { return "parallel" }

// TestProcessClientsOverlapIOs is the point of the whole refactor: IOs from
// distinct sim processes must overlap on a parallel device rather than
// serialize through the global clock.
func TestProcessClientsOverlapIOs(t *testing.T) {
	clk := sim.New()
	e := New(Config{CacheBytes: 1 << 20}, newParallelDevice(8, 1<<20), clk)
	const k = 8
	buf := make([]byte, 512)
	for i := 0; i < k; i++ {
		off := int64(i) * 512 // distinct lanes
		clk.Go(func(pr *sim.Proc) {
			c := e.Process(pr)
			p := make([]byte, len(buf))
			c.ReadAt(p, off)
		})
	}
	clk.Run()
	if clk.Now() != sim.Millisecond {
		t.Fatalf("makespan = %v, want 1ms (IOs must overlap)", clk.Now())
	}
	c := e.Counters()
	if c.Reads != k {
		t.Fatalf("reads = %d", c.Reads)
	}
}

// ioLoader loads fixed-size pages with real (virtual-time) IO.
type ioLoader struct {
	pageBytes int64
	mu        sync.Mutex
	loads     int
}

func (l *ioLoader) Load(c *Client, id PageID) (interface{}, int64) {
	l.mu.Lock()
	l.loads++
	l.mu.Unlock()
	buf := make([]byte, l.pageBytes)
	c.ReadAt(buf, int64(id))
	return buf, l.pageBytes
}

func (l *ioLoader) Store(c *Client, id PageID, obj interface{}) {
	c.WriteAt(obj.([]byte), int64(id))
}

// TestConcurrentGetSingleLoad: many processes Get the same cold page; the
// busy latch must ensure exactly one load IO, with everyone else waiting in
// virtual time and sharing the canonical object.
func TestConcurrentGetSingleLoad(t *testing.T) {
	clk := sim.New()
	e := New(Config{CacheBytes: 1 << 20, Shards: 4}, flatDevice{1 << 20}, clk)
	l := &ioLoader{pageBytes: 4096}
	objs := make([]interface{}, 16)
	for i := range objs {
		i := i
		clk.Go(func(pr *sim.Proc) {
			c := e.Process(pr)
			var pin *Pin
			objs[i], pin = e.Pager().Pin(c, l, 0)
			pin.Unpin(c)
		})
	}
	clk.Run()
	if l.loads != 1 {
		t.Fatalf("loads = %d, want 1 (latch must suppress duplicate loads)", l.loads)
	}
	for i, o := range objs {
		if o == nil {
			t.Fatalf("client %d got nil", i)
		}
		if &o.([]byte)[0] != &objs[0].([]byte)[0] {
			t.Fatalf("client %d got a different object", i)
		}
	}
	s := e.Pager().Stats()
	if s.Misses != 1 || s.Hits != 15 {
		t.Fatalf("stats = %+v", s.ShardStats)
	}
}

// TestPerClientCounters: each client accounts its own IO.
func TestPerClientCounters(t *testing.T) {
	clk := sim.New()
	e := New(Config{CacheBytes: 1 << 20}, flatDevice{1 << 20}, clk)
	counts := make([]storage.Counters, 3)
	for i := range counts {
		i := i
		clk.Go(func(pr *sim.Proc) {
			c := e.Process(pr)
			buf := make([]byte, 100*(i+1))
			for j := 0; j <= i; j++ {
				c.WriteAt(buf, int64(4096*i))
			}
			counts[i] = c.Counters()
		})
	}
	clk.Run()
	for i, c := range counts {
		if c.Writes != int64(i+1) || c.BytesWritten != int64((i+1)*100*(i+1)) {
			t.Fatalf("client %d counters = %+v", i, c)
		}
	}
	agg := e.Counters()
	if agg.Writes != 1+2+3 {
		t.Fatalf("aggregate writes = %d", agg.Writes)
	}
}

// TestDetachedClientsRace hammers one pager from many real goroutines.
// Under -race this validates the locking discipline end to end: loads,
// hits, evictions with write-back, dirty marking, and flushes all
// interleaving on shared shards.
func TestDetachedClientsRace(t *testing.T) {
	e := New(Config{CacheBytes: 64 << 10, Shards: 4}, flatDevice{1 << 30}, sim.New())
	l := &ioLoader{pageBytes: 4096}
	const pages = 64 // 256 KiB working set over a 64 KiB budget: constant eviction
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := e.Detached()
			rng := uint64(g)*2654435761 + 1
			for i := 0; i < 500; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				id := PageID((rng >> 33) % pages * 4096)
				obj, pin := e.Pager().Pin(c, l, id)
				buf := obj.([]byte)
				if i%3 == 0 {
					binary.LittleEndian.PutUint64(buf[8*g:], rng)
					pin.MarkDirty(c, l.pageBytes)
				}
				pin.Unpin(c)
			}
		}(g)
	}
	wg.Wait()
	e.Pager().Flush(e.Detached())
	s := e.Pager().Stats()
	if s.Misses == 0 || s.Evictions == 0 || s.Writebacks == 0 {
		t.Fatalf("expected traffic on every path: %+v", s.ShardStats)
	}
	if e.Pager().Used() > e.Pager().Budget() {
		t.Fatalf("over budget at rest: used=%d budget=%d", e.Pager().Used(), e.Pager().Budget())
	}
}

// TestAllocatorSharedAcrossClients: concurrent Alloc/Free keep extents
// disjoint (the engine serializes its allocator).
func TestAllocatorSharedAcrossClients(t *testing.T) {
	e := New(Config{CacheBytes: 1 << 20}, flatDevice{1 << 30}, sim.New())
	const goroutines = 8
	offs := make([][]int64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				offs[g] = append(offs[g], e.Alloc(4096))
			}
		}(g)
	}
	wg.Wait()
	seen := map[int64]bool{}
	for _, list := range offs {
		for _, off := range list {
			if seen[off] {
				t.Fatalf("extent %d handed out twice", off)
			}
			seen[off] = true
		}
	}
	if e.HighWater() != goroutines*200*4096 {
		t.Fatalf("highwater = %d", e.HighWater())
	}
}

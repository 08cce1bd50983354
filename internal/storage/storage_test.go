package storage

import (
	"bytes"
	"math/rand"
	"testing"

	"iomodels/internal/sim"
)

// flatDevice is a trivial Device for storage-layer tests: every IO costs
// 1ms + 1ns/byte.
type flatDevice struct{ capacity int64 }

func (d flatDevice) Access(now sim.Time, _ Op, _, size int64) sim.Time {
	return now + sim.Millisecond + sim.Time(size)
}
func (d flatDevice) Capacity() int64 { return d.capacity }
func (d flatDevice) Name() string    { return "flat" }

func TestDiskRoundtrip(t *testing.T) {
	clk := sim.New()
	d := NewDisk(flatDevice{1 << 20}, clk)
	in := []byte("hello, disk")
	d.WriteAt(in, 4096)
	if out := d.Read(4096, len(in)); !bytes.Equal(in, out) {
		t.Fatalf("roundtrip mismatch: %q", out)
	}
}

func TestDiskChargesTime(t *testing.T) {
	clk := sim.New()
	d := NewDisk(flatDevice{1 << 20}, clk)
	buf := make([]byte, 1000)
	d.WriteAt(buf, 0)
	want := sim.Millisecond + 1000*sim.Nanosecond
	if clk.Now() != want {
		t.Fatalf("clock = %v, want %v", clk.Now(), want)
	}
	d.Read(0, len(buf))
	if clk.Now() != 2*want {
		t.Fatalf("clock = %v, want %v", clk.Now(), 2*want)
	}
}

func TestDiskCounters(t *testing.T) {
	clk := sim.New()
	d := NewDisk(flatDevice{1 << 20}, clk)
	d.WriteAt(make([]byte, 100), 0)
	d.Read(0, 50)
	d.Read(50, 50)
	c := d.Counters()
	if c.Writes != 1 || c.BytesWritten != 100 || c.Reads != 2 || c.BytesRead != 100 {
		t.Fatalf("counters = %+v", c)
	}
	if c.IOTime() != c.ReadTime+c.WriteTime || c.IOTime() == 0 {
		t.Fatal("io time inconsistent")
	}
	base := d.Counters()
	d.WriteAt(make([]byte, 10), 0)
	delta := d.Counters().Sub(base)
	if delta.Writes != 1 || delta.Reads != 0 || delta.BytesWritten != 10 {
		t.Fatalf("delta = %+v", delta)
	}
	d.ResetCounters()
	if d.Counters().Reads != 0 {
		t.Fatal("reset failed")
	}
}

func TestCountersAddString(t *testing.T) {
	var a Counters
	a.Add(Counters{Reads: 1, BytesRead: 2, ReadTime: 3})
	if a.Reads != 1 || a.BytesRead != 2 || a.ReadTime != 3 {
		t.Fatalf("add = %+v", a)
	}
	if a.String() == "" {
		t.Fatal("empty string")
	}
}

func TestDiskZeroLengthIONoCharge(t *testing.T) {
	clk := sim.New()
	d := NewDisk(flatDevice{1 << 20}, clk)
	d.Read(0, 0)
	d.WriteAt(nil, 0)
	if clk.Now() != 0 || d.Counters().Reads != 0 {
		t.Fatal("zero-length IO charged")
	}
}

func TestDiskBeyondCapacityPanics(t *testing.T) {
	clk := sim.New()
	d := NewDisk(flatDevice{100}, clk)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.WriteAt(make([]byte, 10), 95)
}

func TestTrace(t *testing.T) {
	clk := sim.New()
	d := NewDisk(flatDevice{1 << 20}, clk)
	tr := &Trace{}
	d.SetTrace(tr)
	d.WriteAt(make([]byte, 10), 100)
	d.Read(200, 20)
	recs := tr.Snapshot()
	if len(recs) != 2 || tr.Len() != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[1]
	if r.Op != Read || r.Off != 200 || r.Size != 20 || r.Latency <= 0 {
		t.Fatalf("record = %+v", r)
	}
	// nil trace is a no-op
	var nilTrace *Trace
	nilTrace.add(TraceRecord{})
	if nilTrace.Snapshot() != nil || nilTrace.Len() != 0 {
		t.Fatal("nil trace not empty")
	}
}

func TestStoreConcurrentSafe(t *testing.T) {
	// Host-parallel smoke test: many goroutines hammer a shared Store, each
	// in its own block of one run, keeping the view it read last while it
	// writes again. Run under -race this checks the locking discipline and
	// that a write never touches bytes another goroutine is viewing.
	s := NewStore(flatDevice{1 << 20})
	s.SetTrace(NewTrace())
	s.WriteAt(0, make([]byte, 8*blockBytes), 0)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			off := int64(g) * blockBytes
			var now sim.Time
			var last []byte
			for i := 0; i < 200; i++ {
				buf := bytes.Repeat([]byte{byte(g + i)}, 64)
				now = s.WriteAt(now, buf, off)
				if last != nil && last[0] != byte(g+i-1) {
					t.Errorf("goroutine %d: a write changed the view it read", g)
				}
				last, now = s.Read(now, off, len(buf))
				if !bytes.Equal(last, buf) {
					t.Errorf("goroutine %d: read back %v, wrote %v", g, last[:4], buf[:4])
				}
				now = s.Meter(now, Read, off, 64)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	c := s.Counters()
	if c.Writes != 1+8*200 || c.Reads != 2*8*200 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("op names wrong")
	}
}

func TestAllocatorBumpAndReuse(t *testing.T) {
	a := NewAllocator(1000)
	x := a.Alloc(100)
	y := a.Alloc(100)
	if x == y {
		t.Fatal("duplicate extents")
	}
	if a.HighWater() != 200 {
		t.Fatalf("highwater = %d", a.HighWater())
	}
	a.Free(x, 100)
	z := a.Alloc(100)
	if z != x {
		t.Fatalf("free extent not reused: got %d, want %d", z, x)
	}
	if a.HighWater() != 200 {
		t.Fatal("reuse grew the high-water mark")
	}
}

func TestAllocatorSizeSegregation(t *testing.T) {
	a := NewAllocator(1000)
	x := a.Alloc(100)
	a.Free(x, 100)
	y := a.Alloc(50) // different size: must not reuse the 100-byte extent
	if y == x {
		t.Fatal("wrong-size reuse")
	}
}

func TestAllocatorFullPanics(t *testing.T) {
	a := NewAllocator(100)
	a.Alloc(80)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Alloc(30)
}

// TestAllocatorProperties drives random Alloc/Free streams and checks the
// two invariants everything above the allocator relies on: live extents
// never overlap, and a freed extent of the right size is reused before the
// bump pointer advances.
func TestAllocatorProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int64{512, 4096, 64 << 10}
	a := NewAllocator(64 << 20)

	type extent struct{ off, size int64 }
	var live []extent
	freeBySize := map[int64]int{} // size -> count of freed extents available

	overlaps := func(x, y extent) bool {
		return x.off < y.off+y.size && y.off < x.off+x.size
	}

	for step := 0; step < 5000; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			// Free a random live extent.
			i := rng.Intn(len(live))
			e := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			a.Free(e.off, e.size)
			freeBySize[e.size]++
			continue
		}
		size := sizes[rng.Intn(len(sizes))]
		before := a.HighWater()
		off := a.Alloc(size)
		e := extent{off, size}
		if off+size > 64<<20 || off < 0 {
			t.Fatalf("step %d: extent out of range: %+v", step, e)
		}
		for _, other := range live {
			if overlaps(e, other) {
				t.Fatalf("step %d: extent %+v overlaps live %+v", step, e, other)
			}
		}
		if freeBySize[size] > 0 {
			// A freed extent of this size existed: it must be reused,
			// i.e. the bump pointer must not have advanced.
			if a.HighWater() != before {
				t.Fatalf("step %d: bump pointer advanced (%d -> %d) with %d freed extents of size %d available",
					step, before, a.HighWater(), freeBySize[size], size)
			}
			freeBySize[size]--
		} else if a.HighWater() != before+size {
			t.Fatalf("step %d: fresh alloc advanced bump pointer by %d, want %d",
				step, a.HighWater()-before, size)
		}
		live = append(live, e)
	}
}

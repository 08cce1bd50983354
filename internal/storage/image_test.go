package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"iomodels/internal/sim"
)

// skewDevice is a stateless timing device whose completion time depends on
// every argument, so a model comparison notices an IO that was split, merged
// or issued at the wrong place.
type skewDevice struct{ capacity int64 }

func (d skewDevice) Access(now sim.Time, op Op, off, size int64) sim.Time {
	return now + sim.Millisecond + sim.Time(size) + sim.Time(off%97) + sim.Time(op)*13
}
func (d skewDevice) Capacity() int64 { return d.capacity }
func (d skewDevice) Name() string    { return "skew" }

// flatImage is the reference model: the whole device as one zeroed []byte,
// with the Store's contract spelled out longhand (bounds panic first, then
// one device access, the byte move, one counter record, one trace record).
// Its reads are copies.
type flatImage struct {
	dev      Device
	data     []byte
	counters Counters
	trace    []TraceRecord
}

func (m *flatImage) io(now sim.Time, op Op, off, size int64) sim.Time {
	if end := off + size; end > m.dev.Capacity() {
		panic(fmt.Sprintf("storage: access beyond device capacity: %d > %d", end, m.dev.Capacity()))
	}
	done := m.dev.Access(now, op, off, size)
	m.counters.record(op, size, done-now)
	m.trace = append(m.trace, TraceRecord{At: now, Op: op, Off: off, Size: size, Latency: done - now})
	return done
}

func (m *flatImage) Read(now sim.Time, off int64, n int) ([]byte, sim.Time) {
	if n == 0 {
		return nil, now
	}
	done := m.io(now, Read, off, int64(n))
	return bytes.Clone(m.data[off : off+int64(n)]), done
}

func (m *flatImage) ReadAt(now sim.Time, p []byte, off int64) sim.Time {
	if len(p) == 0 {
		return now
	}
	done := m.io(now, Read, off, int64(len(p)))
	copy(p, m.data[off:])
	return done
}

func (m *flatImage) WriteAt(now sim.Time, p []byte, off int64) sim.Time {
	if len(p) == 0 {
		return now
	}
	done := m.io(now, Write, off, int64(len(p)))
	copy(m.data[off:], p)
	return done
}

func (m *flatImage) Meter(now sim.Time, op Op, off, size int64) sim.Time {
	if size <= 0 {
		return now
	}
	return m.io(now, op, off, size)
}

// panicOf runs fn and returns what it panicked with (nil if it returned).
func panicOf(fn func()) (r interface{}) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// isView reports whether p, read at off, is a view of s's image.
func isView(s *Store, p []byte, off int64) bool {
	if off/blockBytes >= int64(len(s.blocks)) {
		return false
	}
	b := s.blocks[off/blockBytes]
	return b.run != nil && unsafe.SliceData(p) == &b.run.buf[b.at+int(off%blockBytes)]
}

// checkTable requires every run's live count to be the blocks that point
// into it, and Resident to be the bytes of those runs.
func checkTable(t *testing.T, s *Store, what string) {
	t.Helper()
	live := map[*run]int{}
	var bytes int64
	for _, b := range s.blocks {
		if b.run == nil {
			continue
		}
		if live[b.run] == 0 {
			bytes += int64(len(b.run.buf))
		}
		live[b.run]++
	}
	for r, n := range live {
		if r.live != n {
			t.Fatalf("%s: a run counts %d live blocks, %d point into it", what, r.live, n)
		}
	}
	if s.Resident() != bytes {
		t.Fatalf("%s: Resident() = %d, the table's runs hold %d", what, s.Resident(), bytes)
	}
}

// TestStoreMatchesFlatImage drives a FaultStore over a Store and the flat
// reference with the same seeded sequence of writes, handovers, torn writes,
// reads, reads into a buffer of the caller's (ReadAt, into one that holds
// other bytes) and metered IOs — lengths and offsets chosen on, just before and just
// after block boundaries, reads of ranges nothing ever wrote, accesses ending
// exactly at capacity and one byte past it — and requires equal bytes,
// completion times, panics, counters and traces. It keeps what every read
// returned: view or copy, each must still equal the flat image as it was
// when the read returned, whatever overlapping, partial or torn writes came
// after.
func TestStoreMatchesFlatImage(t *testing.T) {
	const capacity = 6*blockBytes + 123 // the last block is partial
	lengths := []int64{0, 1, blockBytes - 1, blockBytes, blockBytes + 1, 3*blockBytes + 7}
	noise := make([]byte, 4*blockBytes) // payloads are windows of it
	rand.New(rand.NewSource(99)).Read(noise)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := NewFaultStore(skewDevice{capacity})
		s := f.Inner()
		tr := NewTrace()
		f.SetTrace(tr)
		m := &flatImage{dev: skewDevice{capacity}, data: make([]byte, capacity)}

		type kept struct {
			got, want []byte
			step      int
		}
		var reads []kept
		views := 0
		checkReads := func(step int) {
			for _, r := range reads {
				if !bytes.Equal(r.got, r.want) {
					t.Fatalf("seed %d step %d: what the read at step %d returned has changed", seed, step, r.step)
				}
			}
		}
		pickOff := func(size int64) int64 {
			switch rng.Intn(8) {
			case 0: // ends exactly at capacity
				return capacity - size
			case 1: // ends one byte past capacity
				return capacity - size + 1
			case 2:
				return rng.Int63n(capacity)
			}
			off := rng.Int63n(7)*blockBytes + rng.Int63n(3) - 1
			if off < 0 {
				off = 0
			}
			return off
		}
		payload := func(size int64) []byte { return noise[rng.Intn(blockBytes-7):][:size] }
		var now sim.Time
		for step := 0; step < 600; step++ {
			size := lengths[rng.Intn(len(lengths))]
			off := pickOff(size)
			what := fmt.Sprintf("seed %d step %d: off %d size %d", seed, step, off, size)
			var got, want sim.Time
			var gotP, wantP interface{}
			switch kind := rng.Intn(8); kind {
			case 0, 1: // write
				p := payload(size)
				gotP = panicOf(func() { got = f.WriteAt(now, p, off) })
				wantP = panicOf(func() { want = m.WriteAt(now, p, off) })
			case 2: // handover of a buffer nobody writes again
				p := bytes.Clone(payload(size))
				wantP = panicOf(func() { want = m.WriteAt(now, p, off) })
				gotP = panicOf(func() { got = f.Handover(now, p, off) })
			case 3: // torn write: the machine dies after tear bytes of it
				if size == 0 || off+size > capacity {
					continue
				}
				p, tear := payload(size), rng.Intn(int(size))
				f.CrashAtWrite(1, tear)
				if _, ok := panicOf(func() { f.WriteAt(now, p, off) }).(*CrashError); !ok {
					t.Fatalf("%s: the armed crash did not fire", what)
				}
				f.ClearFaults()
				m.WriteAt(now, p[:tear], off)
				got, want = now, now
			case 4, 5: // read
				var gb, wb []byte
				gotP = panicOf(func() { gb, got = f.Read(now, off, int(size)) })
				wantP = panicOf(func() { wb, want = m.Read(now, off, int(size)) })
				if !bytes.Equal(gb, wb) {
					t.Fatalf("%s: read bytes differ from the flat image", what)
				}
				if gotP == nil && size > 0 {
					reads = append(reads, kept{gb, wb, step})
					if isView(s, gb, off) {
						views++
					}
				}
			case 6: // read into a buffer that holds other bytes
				gb, wb := bytes.Repeat([]byte{0xFF}, int(size)), make([]byte, size)
				gotP = panicOf(func() { got = f.ReadAt(now, gb, off) })
				wantP = panicOf(func() { want = m.ReadAt(now, wb, off) })
				if gotP == nil && !bytes.Equal(gb, wb) {
					t.Fatalf("%s: ReadAt bytes differ from the flat image", what)
				}
			default: // meter
				op := Op(rng.Intn(2))
				gotP = panicOf(func() { got = f.Meter(now, op, off, size) })
				wantP = panicOf(func() { want = m.Meter(now, op, off, size) })
			}
			if !reflect.DeepEqual(gotP, wantP) {
				t.Fatalf("%s: panic %v, want %v", what, gotP, wantP)
			}
			if got != want {
				t.Fatalf("%s: completion %v, want %v", what, got, want)
			}
			if wantP == nil && want > now {
				now = want
			}
			checkReads(step)
		}
		if got := f.Counters(); got != m.counters {
			t.Fatalf("seed %d: counters %+v, want %+v", seed, got, m.counters)
		}
		if got := tr.Snapshot(); !reflect.DeepEqual(got, m.trace) {
			t.Fatalf("seed %d: trace differs from the flat image's (%d vs %d records)", seed, len(got), len(m.trace))
		}
		if whole, _ := s.Read(now, 0, capacity); !bytes.Equal(whole, m.data) {
			t.Fatalf("seed %d: final image differs from the flat image", seed)
		}
		if views == 0 || views == len(reads) {
			t.Fatalf("seed %d: %d of %d reads were views; the sequence must exercise both views and copies", seed, views, len(reads))
		}
		checkTable(t, s, fmt.Sprintf("seed %d", seed))
	}
}

// TestStoreViewsAndHandover pins the copy-on-write rules one at a time: a
// handed-over extent is the image, and a read of it is a view of the very
// buffer; a write over viewed blocks moves them to one fresh run and leaves
// the view as it was; a write into blocks nobody viewed goes in place.
func TestStoreViewsAndHandover(t *testing.T) {
	s := NewStore(skewDevice{1 << 20})
	p := bytes.Repeat([]byte{1}, 2*blockBytes)
	s.Handover(0, p, blockBytes)
	v, _ := s.Read(0, blockBytes, len(p))
	if unsafe.SliceData(v) != &p[0] || cap(v) != len(p) {
		t.Fatal("a read of a handed-over extent is not a capacity-capped view of it")
	}
	if s.Resident() != int64(len(p)) {
		t.Fatalf("Resident() = %d after one handover of %d bytes", s.Resident(), len(p))
	}

	s.WriteAt(0, bytes.Repeat([]byte{2}, len(p)), blockBytes)
	if !bytes.Equal(v, bytes.Repeat([]byte{1}, len(p))) {
		t.Fatal("a write changed a view")
	}
	w, _ := s.Read(0, blockBytes, len(p))
	if !isView(s, w, blockBytes) || !bytes.Equal(w, bytes.Repeat([]byte{2}, len(p))) {
		t.Fatal("an extent rewritten whole is not one run with the new bytes")
	}
	if s.Resident() != int64(len(p)) {
		t.Fatalf("Resident() = %d: the viewed run is still counted", s.Resident())
	}

	s.WriteAt(0, []byte{9}, 5*blockBytes)
	s.WriteAt(0, []byte{8}, 5*blockBytes+1)
	x, _ := s.Read(0, 5*blockBytes, 2)
	if !bytes.Equal(x, []byte{9, 8}) || s.Resident() != int64(len(p))+blockBytes {
		t.Fatalf("a write into an unviewed block did not go in place: %v, resident %d", x, s.Resident())
	}
	checkTable(t, s, "after the pinned writes")
}

// TestReadAtLendsNothing: ReadAt copies into the caller's buffer and marks
// nothing viewed, so a later write of the extent goes in place, into the run
// already there, and leaves the copy as it was; blocks nothing wrote read as
// zeros whatever the buffer held.
func TestReadAtLendsNothing(t *testing.T) {
	s := NewStore(skewDevice{1 << 20})
	p := bytes.Repeat([]byte{1}, 2*blockBytes)
	s.WriteAt(0, p, blockBytes)
	r := s.blocks[1].run
	got := bytes.Repeat([]byte{0xFF}, 4*blockBytes)
	s.ReadAt(0, got, 0)
	if want := append(append(make([]byte, blockBytes), p...), make([]byte, blockBytes)...); !bytes.Equal(got, want) {
		t.Fatal("ReadAt did not fill the buffer with the image, zeros where nothing was written")
	}
	s.WriteAt(0, bytes.Repeat([]byte{2}, len(p)), blockBytes)
	if s.blocks[1].run != r || s.blocks[2].run != r || s.Resident() != int64(len(p)) {
		t.Fatal("a write after a ReadAt did not go in place")
	}
	if !bytes.Equal(got[blockBytes:3*blockBytes], p) {
		t.Fatal("a write changed what ReadAt copied")
	}
	checkTable(t, s, "after a ReadAt and a write in place")
}

// TestHandoverIsAView: the giver of an extent may go on reading it (a B-tree
// leaf serves Gets from the page it handed over), so no later write changes
// it in place — not one into part of a block, not one over the whole extent —
// even though nothing has read it back.
func TestHandoverIsAView(t *testing.T) {
	s := NewStore(skewDevice{1 << 20})
	p := bytes.Repeat([]byte{1}, 2*blockBytes)
	s.Handover(0, p, blockBytes)
	s.WriteAt(0, []byte{7}, blockBytes+5)
	s.WriteAt(0, bytes.Repeat([]byte{2}, len(p)), blockBytes)
	if !bytes.Equal(p, bytes.Repeat([]byte{1}, len(p))) {
		t.Fatal("a write changed a handed-over extent in place")
	}
	if w, _ := s.Read(0, blockBytes, len(p)); !bytes.Equal(w, bytes.Repeat([]byte{2}, len(p))) {
		t.Fatal("the image does not hold the last write")
	}
	checkTable(t, s, "after writes over a handed-over extent")
}

// TestStoreCapacityEdge pins the two accesses the sequence above only meets
// by chance: one ending exactly at Capacity() succeeds, one byte further
// panics with the message the flat image always gave, for all three IO kinds,
// and the refused access is neither counted nor resident.
func TestStoreCapacityEdge(t *testing.T) {
	const capacity = 2*blockBytes + 5
	s := NewStore(skewDevice{capacity})
	p := []byte{1, 2, 3, 4}
	s.WriteAt(0, p, capacity-4)
	got, _ := s.Read(0, capacity-4, 4)
	s.Meter(0, Read, capacity-4, 4)
	if !bytes.Equal(got, p) {
		t.Fatalf("tail bytes = %v, want %v", got, p)
	}
	before, resident := s.Counters(), s.Resident()
	want := fmt.Sprintf("storage: access beyond device capacity: %d > %d", capacity+1, capacity)
	for name, fn := range map[string]func(){
		"WriteAt": func() { s.WriteAt(0, p, capacity-3) },
		"Read":    func() { s.Read(0, capacity-3, 4) },
		"Meter":   func() { s.Meter(0, Write, capacity-3, 4) },
	} {
		if r := panicOf(fn); r != want {
			t.Errorf("%s one byte past capacity: panic %v, want %q", name, r, want)
		}
	}
	if s.Counters() != before || s.Resident() != resident {
		t.Fatalf("a refused access changed the store: counters %+v → %+v, resident %d → %d",
			before, s.Counters(), resident, s.Resident())
	}
}

// TestStoreResidencyFollowsWrites: host memory is what was written. A read
// of a range nothing wrote returns zeros, allocates only its result and
// leaves nothing resident; three small writes 300 MiB apart on a 4 GiB device
// cost three blocks, not 600 MiB.
func TestStoreResidencyFollowsWrites(t *testing.T) {
	s := NewStore(skewDevice{4 << 30})
	const n = 3*blockBytes + 7
	var buf []byte
	allocs := testing.AllocsPerRun(20, func() {
		buf, _ = s.Read(0, 700<<20-5, n)
	})
	if allocs > 1 {
		t.Errorf("a read of an absent range made %v allocations, want its result only", allocs)
	}
	if !bytes.Equal(buf, make([]byte, n)) {
		t.Error("a read of an absent range is not zeros")
	}
	s.Meter(0, Write, 1<<30, 8<<20)
	if r := s.Resident(); r != 0 {
		t.Fatalf("Resident() = %d after reads and metered IO only, want 0", r)
	}

	for _, off := range []int64{0, 300 << 20, 600 << 20} {
		s.WriteAt(0, []byte("page"), off)
	}
	if r := s.Resident(); r <= 0 || r > 3*blockBytes {
		t.Fatalf("Resident() = %d after three small writes, want in (0, %d]", r, 3*blockBytes)
	}
	if got, _ := s.Read(0, 300<<20, 4); string(got) != "page" {
		t.Fatalf("read back %q", got)
	}
}

// TestFaultStoreTearsInsideSecondBlock: a fatal write that straddles a block
// boundary and tears past it leaves exactly the torn prefix — the part in the
// first block whole, the part in the second cut at the tear point — and the
// bytes that were there before beyond it.
func TestFaultStoreTearsInsideSecondBlock(t *testing.T) {
	f := NewFaultStore(flatDev{8 * blockBytes})
	const off, size, tear = blockBytes - 100, 300, 100 + 50 // 50 bytes into block 1
	old := bytes.Repeat([]byte{0x11}, size)
	f.WriteAt(0, old, off)

	f.CrashAtWrite(1, tear)
	r := panicOf(func() { f.WriteAt(0, bytes.Repeat([]byte{0xEE}, size), off) })
	if _, ok := r.(*CrashError); !ok {
		t.Fatalf("panic %v, want *CrashError", r)
	}
	f.ClearFaults()
	if f.Resident() != f.Inner().Resident() || f.Resident() > 2*blockBytes {
		t.Fatalf("Resident() = %d (inner %d), want the two blocks written", f.Resident(), f.Inner().Resident())
	}
	got, _ := f.Read(0, off, size)
	want := append(bytes.Repeat([]byte{0xEE}, tear), old[tear:]...)
	if !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		t.Fatalf("torn image wrong from byte %d of the write (tear at %d): %#x, want %#x", i, tear, got[i], want[i])
	}
}

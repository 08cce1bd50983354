package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

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

// TestStoreMatchesFlatImage drives a Store and the flat reference with the
// same seeded WriteAt/ReadAt/Meter sequence — lengths and offsets chosen on,
// just before and just after chunk boundaries, reads of ranges nothing ever
// wrote, accesses ending exactly at capacity and one byte past it — and
// requires equal bytes, completion times, panics, counters and traces.
func TestStoreMatchesFlatImage(t *testing.T) {
	const capacity = 6*chunkBytes + 123 // the last chunk is partial
	lengths := []int64{0, 1, chunkBytes - 1, chunkBytes, chunkBytes + 1, 3*chunkBytes + 7}
	noise := make([]byte, 4*chunkBytes) // payloads are windows of it
	rand.New(rand.NewSource(99)).Read(noise)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore(skewDevice{capacity})
		tr := NewTrace()
		s.SetTrace(tr)
		m := &flatImage{dev: skewDevice{capacity}, data: make([]byte, capacity)}

		pickOff := func(size int64) int64 {
			switch rng.Intn(8) {
			case 0: // ends exactly at capacity
				return capacity - size
			case 1: // ends one byte past capacity
				return capacity - size + 1
			case 2:
				return rng.Int63n(capacity)
			}
			off := rng.Int63n(7)*chunkBytes + rng.Int63n(3) - 1
			if off < 0 {
				off = 0
			}
			return off
		}
		var now sim.Time
		for step := 0; step < 400; step++ {
			size := lengths[rng.Intn(len(lengths))]
			off := pickOff(size)
			what := fmt.Sprintf("seed %d step %d: off %d size %d", seed, step, off, size)
			var got, want sim.Time
			var gotP, wantP interface{}
			switch kind := rng.Intn(5); kind {
			case 0, 1: // write
				p := noise[rng.Intn(chunkBytes-7):][:size]
				gotP = panicOf(func() { got = s.WriteAt(now, p, off) })
				wantP = panicOf(func() { want = m.WriteAt(now, p, off) })
			case 2, 3: // read
				// A read must overwrite the whole buffer, zeros included.
				gp := append([]byte(nil), noise[:size]...)
				wp := append([]byte(nil), noise[:size]...)
				gotP = panicOf(func() { got = s.ReadAt(now, gp, off) })
				wantP = panicOf(func() { want = m.ReadAt(now, wp, off) })
				if !bytes.Equal(gp, wp) {
					t.Fatalf("%s: read bytes differ from the flat image", what)
				}
			default: // meter
				op := Op(rng.Intn(2))
				gotP = panicOf(func() { got = s.Meter(now, op, off, size) })
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
		}
		if got := s.Counters(); got != m.counters {
			t.Fatalf("seed %d: counters %+v, want %+v", seed, got, m.counters)
		}
		if got := tr.Snapshot(); !reflect.DeepEqual(got, m.trace) {
			t.Fatalf("seed %d: trace differs from the flat image's (%d vs %d records)", seed, len(got), len(m.trace))
		}
		whole := make([]byte, capacity)
		s.ReadAt(now, whole, 0)
		if !bytes.Equal(whole, m.data) {
			t.Fatalf("seed %d: final image differs from the flat image", seed)
		}
		if r := s.Resident(); r > capacity {
			t.Fatalf("seed %d: %d bytes resident on a %d-byte device", seed, r, capacity)
		}
	}
}

// TestStoreCapacityEdge pins the two accesses the sequence above only meets
// by chance: one ending exactly at Capacity() succeeds, one byte further
// panics with the message the flat image always gave, for all three IO kinds,
// and the refused access is neither counted nor resident.
func TestStoreCapacityEdge(t *testing.T) {
	const capacity = 2*chunkBytes + 5
	s := NewStore(skewDevice{capacity})
	p := []byte{1, 2, 3, 4}
	s.WriteAt(0, p, capacity-4)
	got := make([]byte, 4)
	s.ReadAt(0, got, capacity-4)
	s.Meter(0, Read, capacity-4, 4)
	if !bytes.Equal(got, p) {
		t.Fatalf("tail bytes = %v, want %v", got, p)
	}
	before, resident := s.Counters(), s.Resident()
	want := fmt.Sprintf("storage: access beyond device capacity: %d > %d", capacity+1, capacity)
	for name, fn := range map[string]func(){
		"WriteAt": func() { s.WriteAt(0, p, capacity-3) },
		"ReadAt":  func() { s.ReadAt(0, got, capacity-3) },
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
// of a range nothing wrote returns zeros, allocates nothing and leaves
// nothing resident; three small writes 300 MiB apart on a 4 GiB device cost
// three chunks, not 600 MiB.
func TestStoreResidencyFollowsWrites(t *testing.T) {
	s := NewStore(skewDevice{4 << 30})
	buf := bytes.Repeat([]byte{0xAB}, 3*chunkBytes+7)
	allocs := testing.AllocsPerRun(20, func() {
		s.ReadAt(0, buf, 700<<20-5)
	})
	if allocs != 0 {
		t.Errorf("a read of an absent range made %v allocations, want 0", allocs)
	}
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Error("a read of an absent range did not zero-fill the buffer")
	}
	s.Meter(0, Write, 1<<30, 8<<20)
	if r := s.Resident(); r != 0 {
		t.Fatalf("Resident() = %d after reads and metered IO only, want 0", r)
	}

	for _, off := range []int64{0, 300 << 20, 600 << 20} {
		s.WriteAt(0, []byte("page"), off)
	}
	if r := s.Resident(); r <= 0 || r > 3*chunkBytes {
		t.Fatalf("Resident() = %d after three small writes, want in (0, %d]", r, 3*chunkBytes)
	}
	got := make([]byte, 4)
	s.ReadAt(0, got, 300<<20)
	if string(got) != "page" {
		t.Fatalf("read back %q", got)
	}
}

// TestFaultStoreTearsInsideSecondChunk: a fatal write that straddles a chunk
// boundary and tears past it leaves exactly the torn prefix — the part in the
// first chunk whole, the part in the second cut at the tear point — and the
// bytes that were there before beyond it.
func TestFaultStoreTearsInsideSecondChunk(t *testing.T) {
	f := NewFaultStore(flatDev{8 * chunkBytes})
	const off, size, tear = chunkBytes - 100, 300, 100 + 50 // 50 bytes into chunk 1
	old := bytes.Repeat([]byte{0x11}, size)
	f.WriteAt(0, old, off)

	f.CrashAtWrite(1, tear)
	r := panicOf(func() { f.WriteAt(0, bytes.Repeat([]byte{0xEE}, size), off) })
	if _, ok := r.(*CrashError); !ok {
		t.Fatalf("panic %v, want *CrashError", r)
	}
	f.ClearFaults()
	if f.Resident() != f.Inner().Resident() || f.Resident() > 2*chunkBytes {
		t.Fatalf("Resident() = %d (inner %d), want the two chunks written", f.Resident(), f.Inner().Resident())
	}
	got := make([]byte, size)
	f.ReadAt(0, got, off)
	want := append(bytes.Repeat([]byte{0xEE}, tear), old[tear:]...)
	if !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		t.Fatalf("torn image wrong from byte %d of the write (tear at %d): %#x, want %#x", i, tear, got[i], want[i])
	}
}

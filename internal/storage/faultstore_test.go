package storage

import (
	"bytes"
	"testing"

	"iomodels/internal/sim"
)

// flatDev is a minimal timing device for fault tests.
type flatDev struct{ capacity int64 }

func (d flatDev) Access(now sim.Time, op Op, off, size int64) sim.Time {
	return now + sim.Time(size)
}
func (d flatDev) Capacity() int64 { return d.capacity }
func (d flatDev) Name() string    { return "flat" }

func TestFaultStoreCrashTearsWrite(t *testing.T) {
	f := NewFaultStore(flatDev{1 << 20})
	payload := bytes.Repeat([]byte{0xEE}, 64)
	f.WriteAt(0, payload, 0)

	f.CrashAtWrite(1, 24) // next write: 24 bytes survive, then the machine dies
	crashed := func() (c bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*CrashError); !ok {
					t.Fatalf("panic payload %T, want *CrashError", r)
				}
				c = true
			}
		}()
		f.WriteAt(0, bytes.Repeat([]byte{0x11}, 64), 128)
		return false
	}()
	if !crashed || !f.Crashed() {
		t.Fatal("armed crash did not fire")
	}

	// Everything panics while down.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("read after crash did not panic")
			}
		}()
		f.Read(0, 0, 8)
	}()

	// Reboot: the durable image has the full first write and exactly the
	// torn prefix of the fatal one.
	f.ClearFaults()
	got, _ := f.Read(0, 0, 64)
	if !bytes.Equal(got, payload) {
		t.Fatal("pre-crash write lost")
	}
	got, _ = f.Read(0, 128, 64)
	want := append(bytes.Repeat([]byte{0x11}, 24), make([]byte, 40)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("torn write image wrong: %x", got[:32])
	}
}

// TestFaultStoreCorruptRead: a corrupted read flips one bit of a copy. The
// view the clean read returned, the image, and the next read are intact.
func TestFaultStoreCorruptRead(t *testing.T) {
	f := NewFaultStore(flatDev{1 << 20})
	want := bytes.Repeat([]byte{0xAA}, 32)
	f.WriteAt(0, want, 0)
	f.CorruptRead(2)
	clean, _ := f.Read(0, 0, 32)
	if !bytes.Equal(clean, want) {
		t.Fatal("read 1 should be clean")
	}
	dirty, _ := f.Read(0, 0, 32)
	if bytes.Equal(dirty, want) {
		t.Fatal("read 2 should be corrupted")
	}
	// One bit, in the middle.
	if dirty[16] != 0xAA^0x01 {
		t.Fatalf("corruption pattern wrong: %x", dirty)
	}
	again, _ := f.Read(0, 0, 32)
	if !bytes.Equal(clean, want) || !bytes.Equal(again, want) {
		t.Fatalf("the corruption reached the image: view %x, read 3 %x", clean, again)
	}
}

// TestFaultStoreFailRead: a failed read panics before anything is read and
// leaves the store up, its image and earlier views intact.
func TestFaultStoreFailRead(t *testing.T) {
	f := NewFaultStore(flatDev{1 << 20})
	want := []byte{1, 2, 3, 4}
	f.WriteAt(0, want, 0)
	view, _ := f.Read(0, 0, 4)
	f.FailRead(1)
	func() {
		defer func() {
			if _, ok := recover().(*ReadFaultError); !ok {
				t.Fatal("expected *ReadFaultError")
			}
		}()
		f.Read(0, 0, 4)
	}()
	// A hard read error is not a crash: the store stays up.
	if f.Crashed() {
		t.Fatal("read fault must not mark the store crashed")
	}
	if got, _ := f.Read(0, 0, 4); !bytes.Equal(got, want) || !bytes.Equal(view, want) {
		t.Fatalf("after a failed read: read %v, view %v, want %v", got, view, want)
	}
}

// TestFaultStoreReadAtFaults: ReadAt counts toward the same read ordinals as
// Read and takes the same faults: a corrupted one flips the middle bit of the
// caller's buffer and nothing else, a failed one panics with *ReadFaultError
// before anything is read, and after a crash it panics with *CrashError.
func TestFaultStoreReadAtFaults(t *testing.T) {
	f := NewFaultStore(flatDev{1 << 20})
	want := bytes.Repeat([]byte{0xAA}, 32)
	f.WriteAt(0, want, 0)
	f.CorruptRead(2)
	f.Read(0, 0, 32)
	got := make([]byte, 32)
	f.ReadAt(0, got, 0)
	if !bytes.Equal(got[:16], want[:16]) || got[16] != 0xAA^0x01 || !bytes.Equal(got[17:], want[17:]) {
		t.Fatalf("read 2 through ReadAt: corruption pattern wrong: %x", got)
	}
	if again, _ := f.Read(0, 0, 32); !bytes.Equal(again, want) {
		t.Fatalf("the corruption reached the image: %x", again)
	}

	f.FailRead(1)
	buf := bytes.Repeat([]byte{7}, 32)
	if _, ok := panicOf(func() { f.ReadAt(0, buf, 0) }).(*ReadFaultError); !ok {
		t.Fatal("expected *ReadFaultError")
	}
	if f.Crashed() || !bytes.Equal(buf, bytes.Repeat([]byte{7}, 32)) {
		t.Fatal("a failed ReadAt crashed the store or filled the buffer")
	}

	f.CrashAtWrite(1, 0)
	panicOf(func() { f.WriteAt(0, want, 0) })
	if _, ok := panicOf(func() { f.ReadAt(0, buf, 0) }).(*CrashError); !ok {
		t.Fatal("a ReadAt on a crashed store did not panic with *CrashError")
	}
}

func TestAllocatorSnapshotRoundTrip(t *testing.T) {
	a := NewAllocator(1 << 20)
	o1 := a.Alloc(4096)
	o2 := a.Alloc(4096)
	a.Alloc(8192)
	a.Free(o1, 4096)
	snap := a.Snapshot()

	// Diverge, then restore.
	a.Alloc(4096) // reuses o1
	a.Alloc(65536)
	b := NewAllocator(1 << 20)
	b.LoadState(snap)
	if b.HighWater() != snap.Next {
		t.Fatalf("restored high water %d, want %d", b.HighWater(), snap.Next)
	}
	if got := b.Alloc(4096); got != o1 {
		t.Fatalf("restored allocator handed %d, want freed extent %d", got, o1)
	}
	if got := b.Alloc(4096); got == o2 {
		t.Fatalf("restored allocator reused live extent %d", o2)
	}
	// The snapshot is a deep copy: restoring twice behaves identically.
	c := NewAllocator(1 << 20)
	c.LoadState(snap)
	if got := c.Alloc(4096); got != o1 {
		t.Fatalf("snapshot mutated by first restore: got %d, want %d", got, o1)
	}
}

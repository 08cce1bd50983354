// FaultStore: crash and fault injection for the durability layer's tests.
//
// Crash-consistency claims are only as good as the crashes they are tested
// against. A FaultStore wraps a Store and can kill the simulated machine at
// a chosen write — optionally tearing that write at a byte boundary, the
// way a real sector write tears when power fails mid-transfer — and can
// corrupt chosen reads. After a crash every IO panics with *CrashError
// (there is no error channel in the hot IO path; the test harness recovers
// the panic, discards all volatile state — engine, pager, trees — and
// reopens the surviving byte image with engine.Recover). The bytes already
// written, including the torn prefix of the fatal write, stay in the inner
// Store: that is the durable image recovery must cope with.

package storage

import (
	"fmt"
	"sync"

	"iomodels/internal/sim"
)

// CrashError is the panic payload of every IO issued at or after an
// injected crash. Test harnesses recover() it and proceed to recovery.
type CrashError struct {
	Write int64 // ordinal of the write the crash was injected at
}

// Error describes the crash.
func (e *CrashError) Error() string {
	return fmt.Sprintf("storage: simulated crash at write %d", e.Write)
}

// ReadFaultError is the panic payload of a read the test asked to fail
// outright (a latent sector error rather than a whole-machine crash).
type ReadFaultError struct {
	Read int64
}

// Error describes the fault.
func (e *ReadFaultError) Error() string {
	return fmt.Sprintf("storage: injected read error at read %d", e.Read)
}

// FaultStore wraps a Store with crash and fault injection. It implements
// ByteStore, so an engine built on it is oblivious to the wrapper until the
// fault fires.
type FaultStore struct {
	inner *Store

	mu         sync.Mutex
	writes     int64 // writes observed since creation
	reads      int64 // reads observed since creation
	crashAt    int64 // crash on this write ordinal (0 = disarmed)
	tearBytes  int   // bytes of the fatal write that reach the medium
	corruptAt  int64 // flip a bit in this read ordinal (0 = disarmed)
	failReadAt int64 // panic ReadFaultError on this read ordinal (0 = disarmed)
	crashed    bool
	crashedAt  int64
}

// NewFaultStore wraps dev's byte store with fault injection.
func NewFaultStore(dev Device) *FaultStore {
	return &FaultStore{inner: NewStore(dev)}
}

// Inner returns the wrapped Store — the durable medium that survives a
// crash.
func (f *FaultStore) Inner() *Store { return f.inner }

// CrashAtWrite arms a crash at the n-th write from now (n >= 1), of which
// only the first tearBytes bytes reach the medium (clamped to the write's
// length; pass a large value for a clean boundary crash). Every IO from the
// fatal write on panics with *CrashError.
func (f *FaultStore) CrashAtWrite(n int64, tearBytes int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt = f.writes + n
	f.tearBytes = tearBytes
}

// CorruptRead arms a single-bit flip in the n-th read from now (n >= 1).
func (f *FaultStore) CorruptRead(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.corruptAt = f.reads + n
}

// FailRead arms a hard read error (panic with *ReadFaultError) at the n-th
// read from now (n >= 1).
func (f *FaultStore) FailRead(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failReadAt = f.reads + n
}

// Crashed reports whether the injected crash has fired.
func (f *FaultStore) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Writes reports how many writes the store has observed (for choosing crash
// points relative to a measured run).
func (f *FaultStore) Writes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes
}

// ClearFaults disarms all pending faults and, after a crash, "reboots" the
// medium: subsequent IO goes through again, and the device's volatile
// scheduling state is power-cycled if it supports Rebooter. The byte image
// is untouched.
func (f *FaultStore) ClearFaults() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt, f.corruptAt, f.failReadAt = 0, 0, 0
	f.crashed = false
	if r, ok := f.inner.Device().(Rebooter); ok {
		r.Reboot()
	}
}

// Device returns the underlying timing device.
func (f *FaultStore) Device() Device { return f.inner.Device() }

// SetTrace attaches an IO trace (nil detaches).
func (f *FaultStore) SetTrace(t *Trace) { f.inner.SetTrace(t) }

// Counters returns the inner store's aggregate IO statistics.
func (f *FaultStore) Counters() Counters { return f.inner.Counters() }

// ResetCounters zeroes the inner store's aggregate IO statistics.
func (f *FaultStore) ResetCounters() { f.inner.ResetCounters() }

// Resident returns the inner store's resident image bytes.
func (f *FaultStore) Resident() int64 { return f.inner.Resident() }

// checkDown panics (after releasing mu) if the machine has crashed; it
// returns with mu still held otherwise. Caller has just taken mu.
func (f *FaultStore) checkDown() {
	if f.crashed {
		at := f.crashedAt
		f.mu.Unlock()
		panic(&CrashError{Write: at})
	}
}

// ReadAt forwards the read, applying read faults.
func (f *FaultStore) ReadAt(now sim.Time, p []byte, off int64) sim.Time {
	f.mu.Lock()
	f.checkDown()
	f.reads++
	corrupt := f.reads == f.corruptAt
	if f.reads == f.failReadAt {
		f.mu.Unlock()
		panic(&ReadFaultError{Read: f.reads})
	}
	f.mu.Unlock()
	done := f.inner.ReadAt(now, p, off)
	if corrupt && len(p) > 0 {
		p[len(p)/2] ^= 0x01
	}
	return done
}

// WriteAt forwards the write unless the armed crash fires: then only the
// torn prefix reaches the medium and the store goes down.
func (f *FaultStore) WriteAt(now sim.Time, p []byte, off int64) sim.Time {
	f.mu.Lock()
	f.checkDown()
	f.writes++
	if f.crashAt != 0 && f.writes >= f.crashAt {
		f.crashed = true
		f.crashedAt = f.writes
		keep := f.tearBytes
		if keep > len(p) {
			keep = len(p)
		}
		f.mu.Unlock()
		if keep > 0 {
			f.inner.WriteAt(now, p[:keep], off)
		}
		panic(&CrashError{Write: f.crashedAt})
	}
	f.mu.Unlock()
	return f.inner.WriteAt(now, p, off)
}

// Meter forwards timing-only IOs. No bytes move, so metered IOs neither
// tear nor advance the crash/fault ordinals.
func (f *FaultStore) Meter(now sim.Time, op Op, off, size int64) sim.Time {
	f.mu.Lock()
	f.checkDown()
	f.mu.Unlock()
	return f.inner.Meter(now, op, off, size)
}

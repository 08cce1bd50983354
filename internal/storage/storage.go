// Package storage defines the interface between data structures and the
// simulated storage devices, plus the bookkeeping every experiment needs:
// an in-memory backing store for the actual bytes, IO counters (the paper's
// write-amplification numbers come from these), and an optional IO trace.
//
// A Device is pure timing: given an IO's offset, size and start time it
// returns the completion time. A Store couples a Device with a byte store:
// it issues IOs at a caller-supplied instant and returns the completion
// time without advancing any clock, so many concurrent clients can keep
// their own notion of time and genuinely overlap IOs on the device (the
// engine layer builds its per-client API on this). A Disk layers a virtual
// clock on a Store for the classic single-threaded ReadAt/WriteAt usage.
package storage

import (
	"fmt"
	"sync"

	"iomodels/internal/sim"
)

// Op distinguishes reads from writes. The paper's models treat them
// symmetrically for timing but the write-amplification analysis (§3) needs
// them separated.
type Op int

// IO operation kinds.
const (
	Read Op = iota
	Write
)

// String returns "read" or "write".
func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// Device models the timing behaviour of a storage device. Implementations
// (internal/hdd, internal/ssd, internal/pdamdev) are mechanistic simulators;
// they must be callable with non-decreasing `now` values and may be shared
// by many simulated clients (a Store serializes the calls).
type Device interface {
	// Access returns the virtual completion time of an IO of size bytes at
	// byte offset off that is issued at time now. Implementations update
	// their internal contention state (head position, die queues, ...).
	Access(now sim.Time, op Op, off, size int64) sim.Time
	// Capacity reports the addressable size in bytes.
	Capacity() int64
	// Name identifies the device profile (e.g. "1 TB Hitachi (2009)").
	Name() string
}

// Rebooter is an optional Device extension: a power cycle discards the
// device's volatile scheduling state (busy horizons, head position) while
// the stored bytes survive. FaultStore.ClearFaults invokes it so that a
// recovery running on a fresh clock is not charged the pre-crash backlog.
type Rebooter interface {
	Reboot()
}

// Topology is a device's shape as an IO scheduler sees it — the one
// vocabulary for "how many IOs, arranged how, keep this device busy".
type Topology struct {
	// Queues is the number of independent read queues (1 for a device with
	// one pool of slots) and PerQueue the IOs worth keeping in flight on
	// each: a lane scheduler runs Queues lanes of PerQueue-sized batches.
	Queues   int
	PerQueue int
	// Parallelism is the realizable IOs per step with every queue busy —
	// the batch size for one global batch. On a multi-queue device it can
	// be below Queues×PerQueue (cross-queue interference).
	Parallelism int
}

// Shaped is an optional Device extension: a device that knows its Topology
// declares it (the stepper behind pdamdev and mqssd, the ssd's die count).
type Shaped interface {
	Topology() Topology
}

// TopologyOf returns dev's declared Topology, or the fallback for devices
// that declare none (hdd, flat test devices): one queue of 16, what such
// devices have always been served with. It is the only fallback; answering
// 1×1 for them instead would turn their servers into one-slot schedulers,
// which is a policy change, not a description of the device.
func TopologyOf(dev Device) Topology {
	if s, ok := dev.(Shaped); ok {
		return s.Topology()
	}
	return Topology{Queues: 1, PerQueue: 16, Parallelism: 16}
}

// Counters accumulates IO statistics. The distinction between logical bytes
// the caller asked for and physical IOs issued is what write amplification
// measures.
type Counters struct {
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
	ReadTime     sim.Time
	WriteTime    sim.Time
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Reads += other.Reads
	c.Writes += other.Writes
	c.BytesRead += other.BytesRead
	c.BytesWritten += other.BytesWritten
	c.ReadTime += other.ReadTime
	c.WriteTime += other.WriteTime
}

// Sub returns c minus other; useful for measuring a phase.
func (c Counters) Sub(other Counters) Counters {
	return Counters{
		Reads:        c.Reads - other.Reads,
		Writes:       c.Writes - other.Writes,
		BytesRead:    c.BytesRead - other.BytesRead,
		BytesWritten: c.BytesWritten - other.BytesWritten,
		ReadTime:     c.ReadTime - other.ReadTime,
		WriteTime:    c.WriteTime - other.WriteTime,
	}
}

// record accumulates one IO into c.
func (c *Counters) record(op Op, size int64, latency sim.Time) {
	if op == Read {
		c.Reads++
		c.BytesRead += size
		c.ReadTime += latency
	} else {
		c.Writes++
		c.BytesWritten += size
		c.WriteTime += latency
	}
}

// IOTime returns total virtual time spent in IO.
func (c Counters) IOTime() sim.Time { return c.ReadTime + c.WriteTime }

// String gives a one-line summary.
func (c Counters) String() string {
	return fmt.Sprintf("reads=%d (%d B, %v) writes=%d (%d B, %v)",
		c.Reads, c.BytesRead, c.ReadTime, c.Writes, c.BytesWritten, c.WriteTime)
}

// TraceRecord is one IO in a Trace.
type TraceRecord struct {
	At      sim.Time
	Op      Op
	Off     int64
	Size    int64
	Latency sim.Time
}

// Trace records IOs for post-hoc analysis (e.g. verifying that the optimized
// Bε-tree issues exactly one IO per level). A nil *Trace records nothing.
// The zero value is an unbounded trace; SetCap turns it into a ring buffer
// that keeps only the most recent records, so long concurrent runs can stay
// traced without growing memory without limit. A Trace is safe for
// concurrent use.
type Trace struct {
	mu      sync.Mutex
	cap     int // 0 = unbounded
	start   int // ring head: index of the oldest record when capped
	records []TraceRecord
	dropped int64
}

// NewTrace returns an unbounded trace.
func NewTrace() *Trace { return &Trace{} }

// NewBoundedTrace returns a trace that keeps only the most recent n records.
func NewBoundedTrace(n int) *Trace {
	t := &Trace{}
	t.SetCap(n)
	return t
}

// SetCap bounds the trace to the most recent n records (n <= 0 removes the
// bound). Shrinking below the current length drops the oldest records.
func (t *Trace) SetCap(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.normalize()
	if n > 0 && len(t.records) > n {
		t.dropped += int64(len(t.records) - n)
		t.records = append([]TraceRecord(nil), t.records[len(t.records)-n:]...)
	}
	if n <= 0 {
		n = 0
	}
	t.cap = n
}

func (t *Trace) add(r TraceRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cap > 0 && len(t.records) == t.cap {
		// Ring: overwrite the oldest record in place.
		t.records[t.start] = r
		t.start = (t.start + 1) % t.cap
		t.dropped++
		return
	}
	t.records = append(t.records, r)
}

// Snapshot returns the recorded IOs in chronological order.
func (t *Trace) Snapshot() []TraceRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceRecord, 0, len(t.records))
	out = append(out, t.records[t.start:]...)
	out = append(out, t.records[:t.start]...)
	return out
}

// Len returns the number of retained records.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.records)
}

// Cap returns the trace's record bound (0 = unbounded). Long-running owners
// (the network server) use it to detect and cap unbounded traces before
// attaching them to a device.
func (t *Trace) Cap() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cap
}

// Dropped returns how many records the cap has discarded.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Reset discards recorded IOs (the drop counter included).
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.normalize()
	t.records = t.records[:0]
	t.start = 0
	t.dropped = 0
}

// normalize rotates the ring so records are in chronological order starting
// at index 0. Caller holds mu.
func (t *Trace) normalize() {
	if t.start == 0 {
		return
	}
	rotated := make([]TraceRecord, 0, len(t.records))
	rotated = append(rotated, t.records[t.start:]...)
	rotated = append(rotated, t.records[:t.start]...)
	t.records = rotated
	t.start = 0
}

// ByteStore is the concurrent byte-moving interface a *Store implements.
// The engine layer accepts any ByteStore so fault-injection wrappers (see
// FaultStore) can sit between the engine and the real store.
type ByteStore interface {
	Device() Device
	SetTrace(t *Trace)
	Counters() Counters
	ResetCounters()
	ReadAt(now sim.Time, p []byte, off int64) sim.Time
	WriteAt(now sim.Time, p []byte, off int64) sim.Time
	Meter(now sim.Time, op Op, off, size int64) sim.Time
	// Resident reports the bytes of host memory the store's image holds.
	Resident() int64
}

// chunkBytes is the granule of a Store's image. A chunk costs host memory
// from the first write that touches it, so a small store pays one chunk and a
// durable node's image — tree pages 328 MiB past its journal and log regions
// — pays for what it wrote, not for the address space in between.
const chunkBytes = 1 << 20

// Store couples a timing Device with an in-memory byte store. It is safe
// for concurrent use: each call issues one IO at the caller-supplied
// instant, moves real bytes, and returns the device's completion time
// without touching any clock. Concurrent clients that wait out their own
// completion times therefore genuinely overlap on the device — the die and
// channel queues of internal/ssd, say, see the interleaved arrival order.
//
// The image is a table of chunkBytes-sized chunks indexed by off/chunkBytes,
// each allocated by the first write into it and never moved: space nothing
// wrote reads as zeros and costs nothing, and no IO pays for the size of the
// image or the device.
type Store struct {
	dev Device

	mu       sync.Mutex
	chunks   [][]byte // nil entry, or index past the end: never written
	resident int64    // bytes of allocated chunks
	trace    *Trace
	counters Counters
}

// NewStore wraps dev with a byte store.
func NewStore(dev Device) *Store {
	return &Store{dev: dev}
}

// Device returns the underlying timing device. The device must only be
// driven through the Store once concurrent clients share it.
func (s *Store) Device() Device { return s.dev }

// SetTrace attaches an IO trace (nil detaches).
func (s *Store) SetTrace(t *Trace) {
	s.mu.Lock()
	s.trace = t
	s.mu.Unlock()
}

// Counters returns a snapshot of IO statistics aggregated over all clients.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// ResetCounters zeroes the aggregate IO statistics.
func (s *Store) ResetCounters() {
	s.mu.Lock()
	s.counters = Counters{}
	s.mu.Unlock()
}

// Resident reports the host memory the image holds: the bytes of every chunk
// a write has touched.
func (s *Store) Resident() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resident
}

// access is the part every IO shares: refuse one that ends past the device,
// charge the device, count and trace it. Caller holds mu.
func (s *Store) access(now sim.Time, op Op, off, size int64) sim.Time {
	if end := off + size; end > s.dev.Capacity() {
		panic(fmt.Sprintf("storage: access beyond device capacity: %d > %d", end, s.dev.Capacity()))
	}
	done := s.dev.Access(now, op, off, size)
	s.counters.record(op, size, done-now)
	s.trace.add(TraceRecord{At: now, Op: op, Off: off, Size: size, Latency: done - now})
	return done
}

// ReadAt issues a read of len(p) bytes at off at time now, copies the bytes
// out, and returns the IO's completion time. The caller is responsible for
// waiting until then (advancing a clock, sleeping a sim process, ...).
func (s *Store) ReadAt(now sim.Time, p []byte, off int64) sim.Time {
	if len(p) == 0 {
		return now
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	done := s.access(now, Read, off, int64(len(p)))
	for len(p) > 0 {
		i, at := off/chunkBytes, off%chunkBytes
		n := min(int64(len(p)), chunkBytes-at)
		if i < int64(len(s.chunks)) && s.chunks[i] != nil {
			copy(p[:n], s.chunks[i][at:])
		} else {
			clear(p[:n])
		}
		p, off = p[n:], off+n
	}
	return done
}

// WriteAt issues a write of len(p) bytes at off at time now, copies the
// bytes in, and returns the IO's completion time.
func (s *Store) WriteAt(now sim.Time, p []byte, off int64) sim.Time {
	if len(p) == 0 {
		return now
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	done := s.access(now, Write, off, int64(len(p)))
	for len(p) > 0 {
		i, at := off/chunkBytes, off%chunkBytes
		for int64(len(s.chunks)) <= i {
			s.chunks = append(s.chunks, nil)
		}
		if s.chunks[i] == nil {
			// The device's last chunk stops at its capacity.
			s.chunks[i] = make([]byte, min(chunkBytes, s.dev.Capacity()-i*chunkBytes))
			s.resident += int64(len(s.chunks[i]))
		}
		n := copy(s.chunks[i][at:], p)
		p, off = p[n:], off+int64(n)
	}
	return done
}

// Meter issues an IO for timing and counters only, moving no bytes. The
// cache-oblivious tree uses it: its in-memory arrays are authoritative and
// the disk image is pure metering.
func (s *Store) Meter(now sim.Time, op Op, off, size int64) sim.Time {
	if size <= 0 {
		return now
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.access(now, op, off, size)
}

// Disk layers a virtual clock on a Store: data structures issue
// ReadAt/WriteAt, and each call advances the clock by the device's service
// time as a side effect. This is the classic one-simulated-client usage;
// concurrent clients go through the engine layer's per-client API instead,
// sharing the Store underneath.
type Disk struct {
	store *Store
	clk   *sim.Engine
}

// NewDisk wraps dev with a byte store on clock clk.
func NewDisk(dev Device, clk *sim.Engine) *Disk {
	return &Disk{store: NewStore(dev), clk: clk}
}

// SetTrace attaches an IO trace (nil detaches).
func (d *Disk) SetTrace(t *Trace) { d.store.SetTrace(t) }

// Store returns the underlying byte store.
func (d *Disk) Store() *Store { return d.store }

// Device returns the underlying timing device.
func (d *Disk) Device() Device { return d.store.Device() }

// Clock returns the virtual clock.
func (d *Disk) Clock() *sim.Engine { return d.clk }

// Counters returns a snapshot of accumulated IO statistics.
func (d *Disk) Counters() Counters { return d.store.Counters() }

// ResetCounters zeroes the IO statistics.
func (d *Disk) ResetCounters() { d.store.ResetCounters() }

// ReadAt reads len(p) bytes at offset off, charging device time.
func (d *Disk) ReadAt(p []byte, off int64) {
	d.clk.AdvanceTo(d.store.ReadAt(d.clk.Now(), p, off))
}

// WriteAt writes len(p) bytes at offset off, charging device time.
func (d *Disk) WriteAt(p []byte, off int64) {
	d.clk.AdvanceTo(d.store.WriteAt(d.clk.Now(), p, off))
}

// Allocator hands out block-aligned extents on a device with a simple bump
// pointer plus per-size free lists. Data structures use it to place nodes;
// freed extents are reused first-fit by exact size (node sizes are uniform
// per tree, so this is both simple and tight). An Allocator is not
// internally synchronized; the engine layer guards its shared allocator
// with a mutex.
type Allocator struct {
	next     int64
	capacity int64
	free     map[int64][]int64 // size -> offsets
}

// NewAllocator creates an allocator over [0, capacity).
func NewAllocator(capacity int64) *Allocator {
	return &Allocator{capacity: capacity, free: make(map[int64][]int64)}
}

// Alloc returns the offset of a fresh extent of the given size.
func (a *Allocator) Alloc(size int64) int64 {
	if size <= 0 {
		panic("storage: Alloc with non-positive size")
	}
	if list := a.free[size]; len(list) > 0 {
		off := list[len(list)-1]
		a.free[size] = list[:len(list)-1]
		return off
	}
	off := a.next
	if off+size > a.capacity {
		panic(fmt.Sprintf("storage: device full: need %d at %d, capacity %d", size, off, a.capacity))
	}
	a.next += size
	return off
}

// Free returns an extent for reuse.
func (a *Allocator) Free(off, size int64) {
	a.free[size] = append(a.free[size], off)
}

// HighWater reports the bump-pointer position (peak space footprint).
func (a *Allocator) HighWater() int64 { return a.next }

// AllocatorState is a deep copy of an allocator's state, taken by Snapshot
// and restored by LoadState. The engine's checkpoint serializes it so
// recovery resumes allocation exactly where the checkpoint left it.
type AllocatorState struct {
	Next     int64
	Capacity int64
	Free     map[int64][]int64
}

// Snapshot returns a deep copy of the allocator's state.
func (a *Allocator) Snapshot() AllocatorState {
	free := make(map[int64][]int64, len(a.free))
	for size, offs := range a.free {
		if len(offs) == 0 {
			continue
		}
		free[size] = append([]int64(nil), offs...)
	}
	return AllocatorState{Next: a.next, Capacity: a.capacity, Free: free}
}

// LoadState replaces the allocator's state with a snapshot (deep-copied, so
// the snapshot stays reusable).
func (a *Allocator) LoadState(s AllocatorState) {
	a.next = s.Next
	if s.Capacity > 0 {
		a.capacity = s.Capacity
	}
	a.free = make(map[int64][]int64, len(s.Free))
	for size, offs := range s.Free {
		if len(offs) == 0 {
			continue
		}
		a.free[size] = append([]int64(nil), offs...)
	}
}

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
// clock on a Store for the classic single-threaded Read/WriteAt usage.
//
// A Store owns the bytes of its image and lends them out: a read returns a
// view of the image rather than a copy, and the image is copy-on-write at
// 4 KiB blocks, so a view holds still for as long as anyone keeps it while
// host memory follows what was written (see Store).
package storage

import (
	"bytes"
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
// A Trace keeps every record it is given, so attach one only to a bounded
// run. A Trace is safe for concurrent use.
type Trace struct {
	mu      sync.Mutex
	records []TraceRecord
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

func (t *Trace) add(r TraceRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.records = append(t.records, r)
}

// Snapshot returns the recorded IOs in chronological order.
func (t *Trace) Snapshot() []TraceRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append(make([]TraceRecord, 0, len(t.records)), t.records...)
}

// Len returns the number of recorded IOs.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.records)
}

// ByteStore is the concurrent byte-moving interface a *Store implements.
// The engine layer accepts any ByteStore so fault-injection wrappers (see
// FaultStore) can sit between the engine and the real store.
type ByteStore interface {
	Device() Device
	SetTrace(t *Trace)
	Counters() Counters
	ResetCounters()
	// Read returns n bytes at off: a read-only view of the image, which no
	// write ever changes (Store.Read).
	Read(now sim.Time, off int64, n int) ([]byte, sim.Time)
	// WriteAt copies p into the image; Handover makes p itself the image,
	// and the caller never writes p again.
	WriteAt(now sim.Time, p []byte, off int64) sim.Time
	Handover(now sim.Time, p []byte, off int64) sim.Time
	Meter(now sim.Time, op Op, off, size int64) sim.Time
	// Resident reports the bytes of host memory the store's image holds.
	Resident() int64
}

// blockBytes is the granule of a Store's image: the unit a view pins against
// writes and a write moves to fresh memory.
const blockBytes = 4 << 10

// run is a buffer a write allocated, or was handed, for a range of blocks.
type run struct {
	buf  []byte
	live int // blocks of the table that still point into buf
}

// block is one entry of a Store's table.
type block struct {
	run    *run // nil: never written
	at     int  // the block's offset in run.buf
	viewed bool // a Read handed out a view of it: no write touches it again
}

// Store couples a timing Device with an in-memory byte store. It is safe
// for concurrent use: each call issues one IO at the caller-supplied
// instant, moves real bytes, and returns the device's completion time
// without touching any clock. Concurrent clients that wait out their own
// completion times therefore genuinely overlap on the device — the die and
// channel queues of internal/ssd, say, see the interleaved arrival order.
//
// The image is a table of blockBytes-sized blocks indexed by off/blockBytes.
// Each written block is a window of a run: the buffer the write that last
// moved it allocated, or the one a Handover gave. Space nothing wrote reads as
// zeros and costs nothing, so memory follows what was written, not the
// address space or the device. The image's bytes are shared, copy-on-write
// at block granularity: a Read of a range that lies in one stretch of one run
// returns a view of it instead of a copy and marks its blocks viewed, and a
// write goes in place only into written blocks nobody has viewed. Any other
// write moves its blocks to a fresh run — all of them, if it covers them
// whole, so that an extent written in one piece stays one run, and that run
// is the written buffer itself if it was handed over — and the old run lives
// on for as long as a view of it does.
type Store struct {
	dev Device

	mu       sync.Mutex
	blocks   []block
	resident int64 // bytes of the runs the table points into
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

// Resident reports the host memory the image holds: the bytes of every run
// the table points into. A run a view keeps alive after every block has left
// it is the view's, not the image's.
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

// Read issues a read of n bytes at off at time now and returns the bytes and
// the IO's completion time. The caller is responsible for waiting until then
// (advancing a clock, sleeping a sim process, ...). The bytes are read-only:
// when [off, off+n) lies in one stretch of one run they are a view of it,
// whose blocks no write touches again; otherwise they are a fresh copy.
func (s *Store) Read(now sim.Time, off int64, n int) ([]byte, sim.Time) {
	if n == 0 {
		return nil, now
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	done := s.access(now, Read, off, int64(n))
	if v := s.view(off, n); v != nil {
		return v, done
	}
	p := make([]byte, n)
	s.copyOut(p, off)
	return p, done
}

// view returns [off, off+n) as a capacity-capped slice of the run holding it
// and marks its blocks viewed, or returns nil if the range is not one
// stretch of one run. Caller holds mu.
func (s *Store) view(off int64, n int) []byte {
	first, last := off/blockBytes, (off+int64(n)-1)/blockBytes
	if last >= int64(len(s.blocks)) {
		return nil
	}
	b := s.blocks[first]
	for i, c := range s.blocks[first : last+1] {
		if c.run == nil || c.run != b.run || c.at != b.at+i*blockBytes {
			return nil
		}
	}
	for i := first; i <= last; i++ {
		s.blocks[i].viewed = true
	}
	start := b.at + int(off%blockBytes)
	return b.run.buf[start : start+n : start+n]
}

// copyOut copies [off, off+len(dst)) of the image into dst, which is zeroed:
// blocks nothing wrote stay zero. Caller holds mu.
func (s *Store) copyOut(dst []byte, off int64) {
	for len(dst) > 0 {
		i, in := off/blockBytes, int(off%blockBytes)
		k := min(len(dst), blockBytes-in)
		if i < int64(len(s.blocks)) && s.blocks[i].run != nil {
			b := s.blocks[i]
			copy(dst[:k], b.run.buf[b.at+in:])
		}
		dst, off = dst[k:], off+int64(k)
	}
}

// WriteAt issues a write of len(p) bytes at off at time now, copies the
// bytes in, and returns the IO's completion time.
func (s *Store) WriteAt(now sim.Time, p []byte, off int64) sim.Time {
	return s.write(now, p, off, false)
}

// Handover is WriteAt that gives p to the store: when [off, off+len(p)) is
// whole blocks, p itself becomes their run and nothing is copied. The caller
// must never write p again; a pager write-back hands over the extent it has
// just encoded.
func (s *Store) Handover(now sim.Time, p []byte, off int64) sim.Time {
	return s.write(now, p, off, true)
}

func (s *Store) write(now sim.Time, p []byte, off int64, give bool) sim.Time {
	if len(p) == 0 {
		return now
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	done := s.access(now, Write, off, int64(len(p)))
	end := off + int64(len(p))
	first, last := off/blockBytes, (end-1)/blockBytes
	if n := last + 1 - int64(len(s.blocks)); n > 0 {
		s.blocks = append(s.blocks, make([]block, n)...)
	}
	// Blocks the write covers whole move together to p when it is handed
	// over, and to a copy of it when they must move anyway. The device's last
	// block stops at its capacity.
	whole := off%blockBytes == 0 && (end%blockBytes == 0 || end == s.dev.Capacity())
	if whole && (give || !s.writable(first, last)) {
		buf := p[:len(p):len(p)]
		if !give {
			buf = bytes.Clone(p)
		}
		s.rehome(first, last, buf)
		return done
	}
	// Move each stretch [i, j) of blocks that may not be written in place to
	// a fresh run, keeping their bytes, then write in place.
	for i := first; i <= last; i++ {
		j := i
		for j <= last && !s.writable(j, j) {
			j++
		}
		if j > i {
			buf := make([]byte, min(j*blockBytes, s.dev.Capacity())-i*blockBytes)
			s.copyOut(buf, i*blockBytes)
			s.rehome(i, j-1, buf)
		}
		i = j
	}
	for len(p) > 0 {
		b, in := s.blocks[off/blockBytes], int(off%blockBytes)
		k := copy(b.run.buf[b.at+in:min(b.at+blockBytes, len(b.run.buf))], p)
		p, off = p[k:], off+int64(k)
	}
	return done
}

// writable reports whether blocks [first, last] are written and unviewed:
// a write may change them in place. Caller holds mu.
func (s *Store) writable(first, last int64) bool {
	for _, b := range s.blocks[first : last+1] {
		if b.run == nil || b.viewed {
			return false
		}
	}
	return true
}

// rehome points blocks [first, last] at consecutive windows of buf, a new
// run. Caller holds mu.
func (s *Store) rehome(first, last int64, buf []byte) {
	r := &run{buf: buf, live: int(last - first + 1)}
	s.resident += int64(len(buf))
	for i := first; i <= last; i++ {
		if old := s.blocks[i].run; old != nil {
			old.live--
			if old.live == 0 {
				s.resident -= int64(len(old.buf))
			}
		}
		s.blocks[i] = block{run: r, at: int(i-first) * blockBytes}
	}
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
// Read/WriteAt, and each call advances the clock by the device's service
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

// Read reads n bytes at offset off, charging device time, and returns them
// read-only (see Store.Read).
func (d *Disk) Read(off int64, n int) []byte {
	p, done := d.store.Read(d.clk.Now(), off, n)
	d.clk.AdvanceTo(done)
	return p
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
	return a.Bump(size)
}

// Bump returns a fresh extent at the bump pointer, passing over the free
// lists.
func (a *Allocator) Bump(size int64) int64 {
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

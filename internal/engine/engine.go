// Package engine bundles a simulated device, its byte store, an extent
// allocator, and a sharded buffer pool (the Pager) behind one constructor,
// and defines the Dictionary interface every tree in this repo implements.
//
// The point of the layer is concurrency: the paper's PDAM half (§8,
// Lemma 13) is about k clients saturating a parallel device, so the IO path
// must let k simulated processes issue overlapping IOs. Each client carries
// its own notion of virtual time (a sim process's clock position, or the
// global clock for the classic sequential usage) and its own IO counters;
// the shared Store serializes device-model calls so die/channel queues see
// the true interleaved arrival order, and the Pager's per-shard locks plus
// pin/latch discipline make cached nodes safe to share.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"iomodels/internal/obs"
	"iomodels/internal/sim"
	"iomodels/internal/storage"
)

// Config sizes the engine's shared resources.
type Config struct {
	// CacheBytes is the pager's byte budget: the model's memory size M.
	CacheBytes int64
	// Shards overrides the pager shard count (0 = auto: one shard per
	// 8 MiB of budget, between 1 and 16). More shards reduce lock and LRU
	// contention between concurrent clients but fragment the budget.
	Shards int
}

// Engine owns the shared IO path: device + byte store + allocator + pager.
// Many trees may live on one engine (the shared allocator keeps their
// extents, and hence their PageIDs, disjoint), and many clients may drive
// it concurrently.
type Engine struct {
	clk   *sim.Engine
	store storage.ByteStore
	pager *Pager

	allocMu sync.Mutex
	alloc   *storage.Allocator
	// pendingFree holds extents freed since the last checkpoint when
	// durability is on: they may still be referenced by the checkpoint
	// image, so reusing them before the next checkpoint seals could let an
	// in-place write corrupt state that recovery depends on. The next
	// checkpoint merges them into the allocator's free lists. Guarded by
	// allocMu.
	pendingFree []extent

	dur *durability
	// mvcc is the version layer backing Snapshot reads; created together
	// with dur (the WAL's LSNs are the version stamps), nil otherwise.
	mvcc *versionStore
	// ship is the log-shipping ring (ship.go); nil until EnableShipping.
	ship *shipBuffer

	// tracer, when set, receives a span per client operation (see
	// Client.StartSpan) annotated by the pager, WAL, and IO path. The hot
	// path only ever pays a client-local nil check for it.
	tracer atomic.Pointer[obs.Tracer]
	// clientIDs hands each client a stable id (the trace export's row key).
	clientIDs atomic.Int64

	owner *Client
}

// extent is a freed [off, off+size) range awaiting a checkpoint.
type extent struct{ off, size int64 }

// New creates an engine over dev on clock clk.
func New(cfg Config, dev storage.Device, clk *sim.Engine) *Engine {
	return FromStore(cfg, storage.NewStore(dev), clk)
}

// FromDisk creates an engine sharing an existing Disk's byte store, clock,
// and counters. Trees constructed through the facade use this so the
// familiar "one disk, several structures" setup keeps working.
func FromDisk(cfg Config, d *storage.Disk) *Engine {
	return FromStore(cfg, d.Store(), d.Clock())
}

// FromStore creates an engine over any ByteStore — in particular a
// *storage.FaultStore, which is how the crash tests interpose fault
// injection between the engine and the medium.
func FromStore(cfg Config, store storage.ByteStore, clk *sim.Engine) *Engine {
	e := &Engine{
		clk:   clk,
		store: store,
		alloc: storage.NewAllocator(store.Device().Capacity()),
		pager: newPager(cfg),
	}
	e.owner = &Client{eng: e, ctx: clockCtx{clk}, id: e.clientIDs.Add(1)}
	return e
}

// Clock returns the virtual clock.
func (e *Engine) Clock() *sim.Engine { return e.clk }

// Store returns the shared byte store.
func (e *Engine) Store() storage.ByteStore { return e.store }

// Device returns the underlying timing device.
func (e *Engine) Device() storage.Device { return e.store.Device() }

// Pager returns the shared buffer pool.
func (e *Engine) Pager() *Pager { return e.pager }

// Owner returns the clock-driven client: IOs issued through it advance the
// global clock directly. It is the right client for single-threaded phases
// (loads, settles, sequential experiments) and must not be used while sim
// processes are pending — the clock will refuse (panic) if it is.
func (e *Engine) Owner() *Client { return e.owner }

// Process returns a client whose IOs run in pr's virtual timeline: each IO
// is issued at the process's current instant and the process sleeps until
// the device completes it, so IOs from different processes overlap on the
// device model.
func (e *Engine) Process(pr *sim.Proc) *Client {
	return &Client{eng: e, ctx: procCtx{pr}, id: e.clientIDs.Add(1)}
}

// Detached returns a shared-clock client on a clock of its own, so its time
// cursor never touches the sim engine or anyone else's mark. It exists for
// host-parallel stress tests (many real goroutines hammering the pager under
// -race); virtual times measured through it are per-client, not globally
// ordered.
func (e *Engine) Detached() *Client { return e.SharedClient(NewSharedClock()) }

// Alloc reserves an extent of the given size (safe for concurrent use).
func (e *Engine) Alloc(size int64) int64 {
	e.allocMu.Lock()
	defer e.allocMu.Unlock()
	return e.alloc.Alloc(size)
}

// Free returns an extent for reuse (safe for concurrent use). With
// durability enabled the extent is parked until the next checkpoint (see
// Engine.pendingFree) instead of becoming reusable immediately.
func (e *Engine) Free(off, size int64) {
	e.allocMu.Lock()
	defer e.allocMu.Unlock()
	if e.dur != nil {
		e.pendingFree = append(e.pendingFree, extent{off, size})
		return
	}
	e.alloc.Free(off, size)
}

// HighWater reports the allocator's bump-pointer position.
func (e *Engine) HighWater() int64 {
	e.allocMu.Lock()
	defer e.allocMu.Unlock()
	return e.alloc.HighWater()
}

// Counters returns the store's aggregate IO statistics (all clients).
func (e *Engine) Counters() storage.Counters { return e.store.Counters() }

// ResetCounters zeroes the store's aggregate IO statistics.
func (e *Engine) ResetCounters() { e.store.ResetCounters() }

// SetTrace attaches an IO trace to the store (nil detaches).
func (e *Engine) SetTrace(t *storage.Trace) { e.store.SetTrace(t) }

// SetTracer attaches a span tracer (nil detaches). Spans only open on
// clients whose callers use StartSpan/FinishSpan; with no tracer attached
// the whole span path is a nil check, the same overhead contract as
// storage.Trace.
func (e *Engine) SetTracer(t *obs.Tracer) { e.tracer.Store(t) }

// Tracer returns the attached span tracer (nil when tracing is off).
func (e *Engine) Tracer() *obs.Tracer { return e.tracer.Load() }

// ioCtx is a client's notion of time: where IOs are issued from and how the
// client waits for their completion. There are two kinds. The cooperative
// contexts (clockCtx, procCtx) run on the sim engine, which alone decides who
// runs next, so everything they do is a function of virtual time. A
// sharedCtx (serve.go) belongs to a real goroutine the host kernel
// schedules; its cursor must move only by device work, never by how often
// or how late the host ran it.
type ioCtx interface {
	Now() sim.Time
	WaitUntil(t sim.Time)
}

// clockCtx drives the global clock directly (sequential usage).
type clockCtx struct{ clk *sim.Engine }

func (c clockCtx) Now() sim.Time        { return c.clk.Now() }
func (c clockCtx) WaitUntil(t sim.Time) { c.clk.AdvanceTo(t) }

// procCtx runs inside a simulated process.
type procCtx struct{ pr *sim.Proc }

func (c procCtx) Now() sim.Time        { return c.pr.Now() }
func (c procCtx) WaitUntil(t sim.Time) { c.pr.SleepUntil(t) }

// Client is one simulated actor's handle onto the engine: it issues IOs at
// its own current instant, waits out their completion in its own timeline,
// and accumulates its own IO counters. A Client is used by one goroutine at
// a time (its process); distinct clients are safe concurrently.
type Client struct {
	eng      *Engine
	ctx      ioCtx
	id       int64
	counters storage.Counters
	// capture, when non-nil, diverts WriteAt into a list instead of the
	// device. The checkpoint uses it to collect the pager's dirty pages
	// into the journal without issuing in-place IO. The list keeps each
	// written slice itself, not a copy: a write-back hands over the extent it
	// has just encoded (Loader.Store) and does not touch it again.
	capture *[]pageWrite
	// span is the client's open tracing span (nil while tracing is off or
	// the op was sampled out); layer attributes its IOs to the stack layer
	// currently driving the client (pager load, WAL, checkpoint). Both are
	// client-local: a client is single-goroutine, so no synchronization.
	span  *obs.Span
	layer obs.Layer
}

// pageWrite is one captured write.
type pageWrite struct {
	off  int64
	data []byte
}

// Engine returns the engine this client drives.
func (c *Client) Engine() *Engine { return c.eng }

// Now returns the client's current virtual time.
func (c *Client) Now() sim.Time { return c.ctx.Now() }

// ReadAt reads len(p) bytes at off, charging device time to this client.
func (c *Client) ReadAt(p []byte, off int64) {
	if len(p) == 0 {
		return
	}
	now := c.ctx.Now()
	done := c.eng.store.ReadAt(now, p, off)
	c.counters.Add(storage.Counters{Reads: 1, BytesRead: int64(len(p)), ReadTime: done - now})
	if c.span != nil {
		c.span.IO(c.layer, storage.Read, off, int64(len(p)), now, done-now)
	}
	c.ctx.WaitUntil(done)
}

// WriteAt writes len(p) bytes at off, charging device time to this client.
func (c *Client) WriteAt(p []byte, off int64) {
	if len(p) == 0 {
		return
	}
	if c.capture != nil {
		*c.capture = append(*c.capture, pageWrite{off: off, data: p})
		return
	}
	now := c.ctx.Now()
	done := c.eng.store.WriteAt(now, p, off)
	c.counters.Add(storage.Counters{Writes: 1, BytesWritten: int64(len(p)), WriteTime: done - now})
	if c.span != nil {
		c.span.IO(c.layer, storage.Write, off, int64(len(p)), now, done-now)
	}
	c.ctx.WaitUntil(done)
}

// Meter charges an IO's time and counters without moving bytes (the
// cache-oblivious tree's block metering).
func (c *Client) Meter(op storage.Op, off, size int64) {
	if size <= 0 {
		return
	}
	now := c.ctx.Now()
	done := c.eng.store.Meter(now, op, off, size)
	if op == storage.Read {
		c.counters.Add(storage.Counters{Reads: 1, BytesRead: size, ReadTime: done - now})
	} else {
		c.counters.Add(storage.Counters{Writes: 1, BytesWritten: size, WriteTime: done - now})
	}
	if c.span != nil {
		c.span.IO(c.layer, op, off, size, now, done-now)
	}
	c.ctx.WaitUntil(done)
}

// StartSpan opens a tracing span for one logical operation (a query, an
// insert, a batch commit) on this client. Returns nil — and costs only two
// loads — when no tracer is attached, when the tracer samples this op out,
// or when a span is already open (spans do not nest; the outermost op owns
// the trace). Pass the result to FinishSpan when the operation completes.
func (c *Client) StartSpan(op string) *obs.Span {
	if c.span != nil {
		return nil
	}
	tr := c.eng.tracer.Load()
	if tr == nil {
		return nil
	}
	sp := tr.Begin(op, c.id, c.ctx.Now())
	c.span = sp
	return sp
}

// StartSpanLinked opens a span continuing a carried trace context (a
// request that arrived over the wire already traced): sampling does not
// apply, and the span is linked to the remote parent. A zero context
// behaves exactly like StartSpan. Nil when a span is already open or no
// tracer is attached.
func (c *Client) StartSpanLinked(op string, tc obs.TraceContext) *obs.Span {
	if c.span != nil {
		return nil
	}
	tr := c.eng.tracer.Load()
	if tr == nil {
		return nil
	}
	sp := tr.BeginLinked(op, c.id, c.ctx.Now(), tc)
	c.span = sp
	return sp
}

// FinishSpan closes a span opened by StartSpan. Nil-safe, and a no-op for
// spans this client does not own, so callers may defer it unconditionally.
func (c *Client) FinishSpan(sp *obs.Span) {
	if sp == nil || c.span != sp {
		return
	}
	c.span = nil
	if tr := c.eng.tracer.Load(); tr != nil {
		tr.Finish(sp, c.ctx.Now())
	}
}

// Span returns the client's open span (nil when not tracing). The pager and
// WAL use it to annotate the trace with cache and commit events.
func (c *Client) Span() *obs.Span { return c.span }

// pushLayer switches IO attribution to l and returns the previous layer for
// the caller to restore (plain field writes: a client is single-goroutine).
func (c *Client) pushLayer(l obs.Layer) obs.Layer {
	prev := c.layer
	c.layer = l
	return prev
}

// popLayer restores attribution saved by pushLayer.
func (c *Client) popLayer(l obs.Layer) { c.layer = l }

// Counters returns this client's accumulated IO statistics.
func (c *Client) Counters() storage.Counters { return c.counters }

// ResetCounters zeroes this client's IO statistics.
func (c *Client) ResetCounters() { c.counters = storage.Counters{} }

// latchPoll is how long a cooperative client waits between checks of a page
// another client is loading or writing back. In a cooperative simulation a
// client cannot block on a Go synchronization primitive (the engine would
// deadlock waiting for it to yield), so latch waits are short virtual-time
// sleeps.
const latchPoll = 20 * sim.Microsecond

// hostScheduled reports whether the host kernel, not the sim engine, decides
// when this client runs: true exactly for shared-clock clients.
func (c *Client) hostScheduled() bool {
	_, ok := c.ctx.(*sharedCtx)
	return ok
}

// wait is one pass of a latch wait (see shard.lockUnlatched). A cooperative
// client sleeps one latchPoll quantum in its own timeline: the sim engine
// runs the latch holder meanwhile, so the number of passes is a function of
// virtual time. A host-scheduled client only yields the OS thread: how many
// passes it makes before the holder gets CPU is the host's decision, and a
// loop whose trip count the host decides must not charge virtual time.
func (c *Client) wait() {
	if c.hostScheduled() {
		runtime.Gosched()
		return
	}
	c.ctx.WaitUntil(c.ctx.Now() + latchPoll)
}

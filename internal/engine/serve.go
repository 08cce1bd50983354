// Serving-path extensions: the shared wall clock that lets real (OS-thread)
// goroutines drive the engine's virtual-time device models, and the
// group-commit batch hook the network server's writer uses.
//
// The sim package's processes give deterministic overlap, but they require
// the whole simulation to be driven from one goroutine — a TCP server's
// connection handlers are real goroutines woken by the network poller, so
// they cannot be sim processes. A SharedClock bridges the gap: every serving
// client keeps its own virtual cursor but all cursors observe a common
// monotone high-water mark, and a scheduler can re-align a client onto that
// mark (AlignTo) when it admits the client's next request.
// Virtual time measured through the shared clock is therefore globally
// meaningful — "how many device time steps did this load consume" — even
// though the goroutines themselves are scheduled by the host kernel.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"iomodels/internal/kv"
	"iomodels/internal/obs"
	"iomodels/internal/sim"
	"iomodels/internal/wal"
)

// SharedClock is a monotone virtual-time high-water mark shared by many real
// goroutines. It is safe for concurrent use. The mark advances to the
// completion time of every IO issued through a client attached to it
// (SharedClient, or the owner after AdoptSharedClock), so Now is "the latest
// instant the device has served anyone to".
type SharedClock struct {
	now atomic.Int64
}

// NewSharedClock returns a clock at virtual time zero.
func NewSharedClock() *SharedClock { return &SharedClock{} }

// Now returns the high-water mark.
func (sc *SharedClock) Now() sim.Time { return sim.Time(sc.now.Load()) }

// Observe raises the high-water mark to t (no-op if t is in the past).
func (sc *SharedClock) Observe(t sim.Time) {
	for {
		cur := sc.now.Load()
		if int64(t) <= cur || sc.now.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// sharedCtx is a per-client virtual cursor that reports its completions to a
// SharedClock. It yields the OS thread on waits so host-parallel clients
// interleave, and the cursor can be re-aligned onto the shared mark between
// requests (see Client.AlignTo).
type sharedCtx struct {
	clock *SharedClock
	now   sim.Time
}

func (c *sharedCtx) Now() sim.Time { return c.now }

func (c *sharedCtx) WaitUntil(t sim.Time) {
	if t > c.now {
		c.now = t
		c.clock.Observe(t)
	}
	runtime.Gosched()
}

func (c *sharedCtx) alignTo(t sim.Time) {
	if t > c.now {
		c.now = t
	}
}

// SharedClient returns a client for one real goroutine (a server connection
// handler, say) whose IOs are timestamped on its own cursor, starting at the
// clock's current mark. Distinct shared clients are safe concurrently; each
// individual client is single-goroutine, as always.
func (e *Engine) SharedClient(sc *SharedClock) *Client {
	return &Client{eng: e, ctx: &sharedCtx{clock: sc, now: sc.Now()}, id: e.clientIDs.Add(1)}
}

// AdoptSharedClock rebinds the engine's owner client — and with it every
// tree's single-writer mutation path and the WAL, which hold the owner —
// onto the shared clock, carrying the sim clock's current time over. Call it
// once, after loading/recovery and before serving; the engine must not drive
// sim processes afterwards (their timeline would diverge from the shared
// one).
func (e *Engine) AdoptSharedClock(sc *SharedClock) {
	sc.Observe(e.clk.Now())
	e.owner.ctx = &sharedCtx{clock: sc, now: sc.Now()}
}

// AlignTo moves the client's virtual cursor forward to t (never backward).
// The server uses it to start a read at the instant its scheduler slot is
// free and to move a connection's cursor to the end of a commit it waited
// for. Only shared-clock clients support it.
func (c *Client) AlignTo(t sim.Time) {
	sc, ok := c.ctx.(*sharedCtx)
	if !ok {
		panic("engine: AlignTo on a non-shared-clock client (use Engine.SharedClient)")
	}
	sc.alignTo(t)
}

// Mutation is one write in a group-commit batch. Accepted is an output:
// ApplyBatch stores Delete's acceptance report there (true for Put/Upsert).
type Mutation struct {
	Dict     *Durable
	Kind     kv.Kind // Put / Tombstone / Upsert
	Key      []byte
	Value    []byte // Put: the value; ignored otherwise
	Delta    int64  // Upsert: the counter delta
	Accepted bool
	// TraceID/SpanID, when nonzero, stamp the mutation's WAL record with
	// the traced request that caused it, so the trace can continue on a
	// replica's apply path (the stamps ride the ship stream, not the disk).
	TraceID uint64
	SpanID  uint64
}

// ApplyBatch applies muts in order through their Durable wrappers, then
// commits the WAL's pending group once: N mutations from N connections, one
// log flush — the server's group commit. The usual single-writer rule
// applies (no concurrent mutations or checkpoints on the engine). The
// returned error is the WAL commit's; mutations themselves are always
// applied (durability degrades before availability does, as everywhere in
// this layer).
func (e *Engine) ApplyBatch(muts []Mutation) error {
	if err := e.ApplyBatchNoSync(muts); err != nil {
		return err
	}
	return e.Sync()
}

// ApplyBatchNoSync applies muts in order through their Durable wrappers
// without the trailing group-commit flush. The MVCC server's writer uses
// the split form: applies run under the structural lock, the flush
// (CommitPending) runs outside it, so snapshot and point readers are never
// serialized behind the log device.
func (e *Engine) ApplyBatchNoSync(muts []Mutation) error {
	if e.dur == nil {
		return errNotEnabled
	}
	for i := range muts {
		m := &muts[i]
		if m.Dict == nil {
			return fmt.Errorf("engine: ApplyBatch mutation %d has no dictionary", i)
		}
		// Hand the mutation's trace identity to logMutation (same
		// goroutine: the apply below logs before returning).
		e.dur.nextTraceID, e.dur.nextSpanID = m.TraceID, m.SpanID
		switch m.Kind {
		case kv.Put:
			m.Dict.Put(m.Key, m.Value)
			m.Accepted = true
		case kv.Tombstone:
			m.Accepted = m.Dict.Delete(m.Key)
		case kv.Upsert:
			m.Dict.Upsert(m.Key, m.Delta)
			m.Accepted = true
		default:
			return fmt.Errorf("engine: ApplyBatch mutation %d has invalid kind %d", i, m.Kind)
		}
	}
	// Don't let the last mutation's stamps leak onto a later direct
	// Durable mutation (logMutation clears them only when it runs).
	e.dur.nextTraceID, e.dur.nextSpanID = 0, 0
	return nil
}

// CommitPending flushes the WAL's pending group like Sync, but when the log
// is full it returns wal.ErrLogFull instead of checkpointing: a checkpoint
// restructures engine state (memtable flushes, page installs), which a
// caller running the flush off the structural lock must re-acquire the lock
// for. Callers seeing wal.ErrLogFull take their write exclusion and call
// Checkpoint, which makes every applied record durable via the journal.
func (e *Engine) CommitPending() error {
	if e.dur == nil {
		return errNotEnabled
	}
	d := e.dur
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err
	}
	start := e.owner.ctx.Now()
	prev := e.owner.pushLayer(obs.LayerWAL)
	//lint:allowblock the group-commit flush must run inside d.mu so the pending group cannot grow mid-flush; callers wanting IO off their own lock drop it before calling (see Server.applyWrites)
	err := d.log.Commit()
	e.owner.popLayer(prev)
	if sp := e.owner.span; sp != nil {
		sp.WALCommit(start, e.owner.ctx.Now()-start)
	}
	if err != nil && !errors.Is(err, wal.ErrLogFull) {
		d.err = err
	}
	return err
}

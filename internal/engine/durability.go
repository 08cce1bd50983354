// Durability: WAL-backed mutations, journaled checkpoints, and graceful
// degradation — the engine half of the paper-§3 observation that "write IOs
// in the B-tree may also trigger write IOs from logging and checkpointing".
//
// With durability enabled, every mutation on a registered Dictionary is
// appended to a group-committing WAL before the structure applies it
// (write-ahead rule), the pager switches to a no-steal policy (dirty pages
// never reach the device between checkpoints), and extents freed by node
// merges or compactions are quarantined until the next checkpoint. A
// checkpoint is a double-write: the dirty page set, the allocator snapshot,
// and every dictionary's manifest are sealed into one of two alternating
// journal regions with a single sequential write, then installed in place,
// then the WAL is truncated. Whatever instant a crash hits, the device
// image therefore contains either a sealed journal that reconstructs the
// checkpoint exactly, or an intact older checkpoint plus a WAL whose
// committed suffix replays the rest (see recover.go).
//
// Nothing in this file panics: a durability failure (log overflow that a
// checkpoint cannot clear, journal overflow, ...) records a sticky error,
// mutations keep applying un-logged so availability is preserved, and the
// error is reported by Checkpoint, Sync, and DurabilityStats.
package engine

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"iomodels/internal/kv"
	"iomodels/internal/obs"
	"iomodels/internal/storage"
	"iomodels/internal/wal"
)

// DurabilityConfig sizes the durability subsystem. The zero value of each
// field selects a default.
type DurabilityConfig struct {
	// LogBytes is the WAL region size (default 64 MiB).
	LogBytes int64
	// GroupBytes is the WAL group-commit granularity (default 64 KiB).
	GroupBytes int
	// JournalBytes sizes EACH of the two checkpoint journal regions. It
	// must hold the pager's dirty page set plus manifests; the default is
	// twice the engine's cache budget plus 4 MiB of slack.
	JournalBytes int64
	// CheckpointEveryBytes triggers an automatic checkpoint once the WAL's
	// durable size crosses it (default LogBytes/2; negative disables this
	// trigger, leaving log-full and explicit checkpoints). Independently of
	// it, a checkpoint always fires when the dirty page set reaches half of
	// JournalBytes, because the sealed frame must hold the whole set.
	CheckpointEveryBytes int64
	// MaxVersionsPerKey bounds the MVCC version chain kept per key while
	// snapshots are live (default 64; negative = unbounded). A snapshot
	// older than a trimmed chain's floor reads ErrSnapshotTooOld.
	MaxVersionsPerKey int
}

func (c DurabilityConfig) withDefaults(cacheBytes int64) DurabilityConfig {
	if c.LogBytes == 0 {
		c.LogBytes = 64 << 20
	}
	if c.GroupBytes == 0 {
		c.GroupBytes = 64 << 10
	}
	if c.JournalBytes == 0 {
		c.JournalBytes = 2*cacheBytes + 4<<20
	}
	if c.CheckpointEveryBytes == 0 {
		c.CheckpointEveryBytes = c.LogBytes / 2
	}
	if c.MaxVersionsPerKey == 0 {
		c.MaxVersionsPerKey = 64
	}
	return c
}

// RecoverableDict is implemented by dictionaries that can checkpoint and
// reopen. Checkpoint must move any engine-external volatile state into the
// engine (the LSM flushes its memtable; the B-trees have none — their dirty
// nodes live in the pager, which the engine checkpoint captures) and return
// an opaque manifest from which the package's Open function reconstructs
// the structure.
type RecoverableDict interface {
	Dictionary
	Checkpoint() []byte
}

// Upserter is the optional upsert extension of Dictionary (the Bε-tree's
// blind counter increment).
type Upserter interface {
	Upsert(key []byte, delta int64)
}

// durDict is one registered dictionary; its slice index is the WAL dict ID.
type durDict struct {
	name string
	dict Dictionary
}

// durability is the engine's durability state. All fields are guarded by mu
// except the journal/WAL regions, which only the mu holder writes.
type durability struct {
	mu  sync.Mutex //lint:lockrank 60
	cfg DurabilityConfig

	log        *wal.Log
	journalOff [2]int64
	nextSlot   int    // journal slot the next checkpoint seals
	epoch      uint64 // epoch of the last sealed journal
	lastLSN    uint64 // highest seq covered by the last sealed journal

	dicts  []durDict
	byName map[string]int

	checkpoints  int64
	journalBytes int64
	redoBytes    int64

	// nextTraceID/nextSpanID stamp the next logged record with the traced
	// request that caused it (ApplyBatchNoSync sets them per mutation,
	// logMutation consumes and clears them). They are deliberately NOT
	// guarded by mu: both sides run on the engine's single writer
	// goroutine, whose program order sequences the write before the read.
	nextTraceID uint64
	nextSpanID  uint64

	err error // sticky: durability lost, availability kept
}

// journal framing.
const (
	journalMagic    = 0x434B504A // "CKPJ"
	journalHdrBytes = 4 + 8 + 8 + 4 + 4
)

// errNotEnabled is returned by durability entry points on a plain engine.
var errNotEnabled = errors.New("engine: durability not enabled")

// EnableDurability reserves the journal and WAL regions, creates a fresh
// log, and seals an initial empty checkpoint, so the device image is
// recoverable from this moment on. It must run before any allocation
// (regions live at deterministic offsets, which is how Recover finds them)
// and before any sim processes start.
func (e *Engine) EnableDurability(cfg DurabilityConfig) error {
	if e.dur != nil {
		return errors.New("engine: durability already enabled")
	}
	if e.HighWater() != 0 {
		return errors.New("engine: EnableDurability must precede all allocation")
	}
	d, err := e.layoutDurability(cfg)
	if err != nil {
		return err
	}
	log, err := wal.New(wal.Config{
		Offset:     d.journalOff[1] + d.cfg.JournalBytes,
		Capacity:   d.cfg.LogBytes,
		GroupBytes: d.cfg.GroupBytes,
	}, e.owner)
	if err != nil {
		return fmt.Errorf("engine: wal: %w", err)
	}
	d.log = log
	e.dur = d
	e.mvcc = newVersionStore(d.cfg.MaxVersionsPerKey)
	e.pager.noSteal = true
	// Seal the initial empty checkpoint so a crash before the first real
	// checkpoint still recovers (to an empty engine plus the WAL suffix).
	return e.Checkpoint()
}

// layoutDurability validates cfg and reserves the two journal regions and
// the WAL region at the allocator's current origin. Used by both
// EnableDurability and Recover, so the offsets always agree.
func (e *Engine) layoutDurability(cfg DurabilityConfig) (*durability, error) {
	cfg = cfg.withDefaults(e.pager.Budget())
	if cfg.JournalBytes <= journalHdrBytes {
		return nil, fmt.Errorf("engine: journal region %d too small", cfg.JournalBytes)
	}
	d := &durability{cfg: cfg, byName: make(map[string]int)}
	d.journalOff[0] = e.Alloc(cfg.JournalBytes)
	d.journalOff[1] = e.Alloc(cfg.JournalBytes)
	e.Alloc(cfg.LogBytes) // the WAL region, directly after journal B
	return d, nil
}

// Durable wraps dict so every mutation is WAL-logged before it is applied.
// Reads pass through. The wrapper itself implements Dictionary (and
// Upserter), so workloads and experiments drive it unchanged.
type Durable struct {
	eng  *Engine
	id   uint8
	name string
	dict Dictionary
}

// Durable registers dict under name and returns the write-ahead-logging
// wrapper. Names identify manifests across recovery: reopen with the same
// names, in the same order. Mutations on a registered dictionary must go
// through the wrapper — and must not run concurrently with other mutations
// or checkpoints on the same engine (the usual single-writer rule).
func (e *Engine) Durable(name string, dict Dictionary) (*Durable, error) {
	if e.dur == nil {
		return nil, errNotEnabled
	}
	d := e.dur
	if _, dup := d.byName[name]; dup {
		return nil, fmt.Errorf("engine: durable dictionary %q already registered", name)
	}
	if len(d.dicts) >= 256 {
		return nil, errors.New("engine: too many durable dictionaries (max 256)")
	}
	id := len(d.dicts)
	d.dicts = append(d.dicts, durDict{name: name, dict: dict})
	d.byName[name] = id
	return &Durable{eng: e, id: uint8(id), name: name, dict: dict}, nil
}

// Underlying returns the wrapped dictionary.
func (d *Durable) Underlying() Dictionary { return d.dict }

// Name returns the registration name.
func (d *Durable) Name() string { return d.name }

// Get passes through (reads are not logged).
func (d *Durable) Get(key []byte) ([]byte, bool) { return d.dict.Get(key) }

// Scan passes through (reads are not logged).
func (d *Durable) Scan(lo, hi []byte, fn func(key, value []byte) bool) {
	d.dict.Scan(lo, hi, fn)
}

// Stats passes through.
func (d *Durable) Stats() Stats { return d.dict.Stats() }

// Put logs the write, records its version, then applies it. The version
// bracket (mvcc.begin/end) pins the mutation's LSN and holds snapshot opens
// out of the window between the chain append and the structure apply.
func (d *Durable) Put(key, value []byte) {
	d.eng.logMutation(d.id, kv.Put, key, value)
	v := d.eng.mvcc
	v.begin(d.eng.LogSeq(), key, value, true, func() ([]byte, bool) { return d.dict.Get(key) })
	d.dict.Put(key, value)
	v.end()
}

// Delete logs a tombstone, records it as a versioned absence, then applies
// it.
func (d *Durable) Delete(key []byte) bool {
	d.eng.logMutation(d.id, kv.Tombstone, key, nil)
	v := d.eng.mvcc
	v.begin(d.eng.LogSeq(), key, nil, false, func() ([]byte, bool) { return d.dict.Get(key) })
	ok := d.dict.Delete(key)
	v.end()
	return ok
}

// Upsert materializes the post-image — read the current value, apply the
// delta, log a Put of the result — so replay is a pure fold of Put records
// and can never double-apply a delta. This is the durability tax on blind
// upserts the paper's §3 alludes to: the read the Bε-tree's native upsert
// avoids comes back as soon as the operation must be logged with a
// replayable image.
func (d *Durable) Upsert(key []byte, delta int64) {
	old, ok := d.dict.Get(key)
	m := kv.Message{Kind: kv.Upsert, Value: kv.UpsertDelta(delta)}
	post, _ := m.Apply(old, ok)
	d.eng.logMutation(d.id, kv.Put, key, post)
	v := d.eng.mvcc
	v.begin(d.eng.LogSeq(), key, post, true, func() ([]byte, bool) { return old, ok })
	d.dict.Put(key, post)
	v.end()
}

var _ Dictionary = (*Durable)(nil)
var _ Upserter = (*Durable)(nil)

// logMutation appends one record to the WAL under the durability mutex,
// handling log-full by checkpointing and retrying, and auto-checkpointing
// past the configured threshold. On unrecoverable failure it records the
// sticky error and returns: the caller applies the mutation anyway
// (durability degrades, availability does not).
func (e *Engine) logMutation(id uint8, kind kv.Kind, key, value []byte) {
	d := e.dur
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return
	}
	// Auto-checkpoint BEFORE appending this record: every record appended
	// so far has been applied by its caller, so the checkpoint's lastLSN is
	// exact. (Checkpointing after the append would cover a sequence number
	// whose mutation the journal cannot contain yet.) Two triggers: the WAL
	// crossing CheckpointEveryBytes, and — always armed, since no-steal
	// means only a checkpoint bounds it — the dirty page set reaching half
	// the journal region, which the whole set must fit inside when sealed.
	if (d.cfg.CheckpointEveryBytes > 0 && d.log.DurableBytes() >= d.cfg.CheckpointEveryBytes) ||
		e.pager.DirtyBytes() >= d.cfg.JournalBytes/2 {
		if cerr := e.checkpointLocked(); cerr != nil {
			return
		}
	}
	rec := wal.Record{
		Kind: kind, Dict: id, Key: key, Value: value,
		TraceID: d.nextTraceID, SpanID: d.nextSpanID,
	}
	d.nextTraceID, d.nextSpanID = 0, 0
	// The log's device is e.owner (see EnableDurability), so a group that
	// fills inside Append issues its commit IO through the owner client:
	// attribute it — and annotate the owner's open span, if the mutation is
	// being traced — to the WAL layer.
	prev := e.owner.pushLayer(obs.LayerWAL)
	//lint:allowblock d.mu is the durability state machine's own serialization; WAL IO is simulated virtual-time device IO and must stay inside the bracket so log state and engine state advance atomically
	_, err := d.log.Append(rec)
	if errors.Is(err, wal.ErrLogFull) {
		// The group (this record included) no longer fits. Checkpoint to
		// make every APPLIED record durable via the journal — the current
		// record burned its sequence number but was never applied, so the
		// checkpoint covers only LastSeq-1 — then re-append it under a
		// fresh sequence number into the truncated log.
		if cerr := e.checkpointAt(d.log.LastSeq() - 1); cerr != nil {
			e.owner.popLayer(prev)
			return
		}
		//lint:allowblock same bracket as the first Append: the re-append after a checkpoint must see the truncated log before any other mutation
		_, err = d.log.Append(rec)
	}
	e.owner.popLayer(prev)
	if sp := e.owner.span; sp != nil {
		sp.WALAppend(int64(len(key)+len(value)), e.owner.ctx.Now())
	}
	if err != nil {
		d.err = fmt.Errorf("engine: wal append: %w", err)
	}
}

// Sync forces the WAL's pending group to disk: a durability barrier, after
// which every applied mutation survives a crash. It is CommitPending plus
// the log-full fallback: when the group no longer fits the log, a checkpoint
// makes everything durable through the journal and drops the group.
func (e *Engine) Sync() error {
	err := e.CommitPending()
	if errors.Is(err, wal.ErrLogFull) {
		return e.Checkpoint()
	}
	return err
}

// Checkpoint makes the engine's entire state durable and truncates the WAL:
// dictionary manifests, the pager's dirty pages, and the allocator snapshot
// are sealed into the alternate journal region, installed in place, and the
// log is reset. Must be called from the owner context (no pending sim
// processes).
func (e *Engine) Checkpoint() error {
	if e.dur == nil {
		return errNotEnabled
	}
	e.dur.mu.Lock()
	defer e.dur.mu.Unlock()
	return e.checkpointLocked()
}

// checkpointLocked is Checkpoint with e.dur.mu held; every appended record
// must already be applied (true everywhere except mid-logMutation, which
// uses checkpointAt directly).
func (e *Engine) checkpointLocked() error {
	return e.checkpointAt(e.dur.log.LastSeq())
}

// checkpointAt seals a checkpoint covering WAL sequences up to lastLSN,
// which must be the highest sequence whose mutation has been applied.
func (e *Engine) checkpointAt(lastLSN uint64) error {
	d := e.dur
	if d.err != nil {
		return d.err
	}
	// Every device IO below (journal seal, in-place installs, WAL header
	// rewrite) runs through the owner client: attribute it to the
	// checkpoint layer. The capture client diverts the Flush writes to
	// memory, so they emit no IO events at all.
	prevLayer := e.owner.pushLayer(obs.LayerCheckpoint)
	defer e.owner.popLayer(prevLayer)

	// 1. Dictionary checkpoints: push volatile state into the engine (the
	// LSM's memtable turns into SSTables at fresh extents — safe before the
	// seal, since nothing the previous checkpoint references is
	// overwritten) and collect manifests.
	manifests := make([][]byte, len(d.dicts))
	for i, dd := range d.dicts {
		if rd, ok := dd.dict.(RecoverableDict); ok {
			manifests[i] = rd.Checkpoint()
		}
	}

	// 2. Capture the dirty page set. Flush marks pages clean but the
	// capture client diverts the writes into memory: the device sees them
	// only inside the sealed journal (step 4) and as the in-place install
	// (step 5) — the classic double-write that makes torn page writes
	// recoverable.
	var pages []pageWrite
	cc := &Client{eng: e, ctx: clockCtx{e.clk}, capture: &pages}
	e.pager.Flush(cc)

	// 3. Quarantined frees become reusable at this checkpoint; snapshot the
	// allocator after merging them.
	e.allocMu.Lock()
	for _, x := range e.pendingFree {
		e.alloc.Free(x.off, x.size)
	}
	e.pendingFree = nil
	snap := e.alloc.Snapshot()
	e.allocMu.Unlock()

	// 4. Compose and seal the journal with one sequential write. Every length
	// is known once the capture is done, so the frame is one buffer of exactly
	// its size — the one allocation proportional to the dirty set that the
	// seal makes under the writer's lock. The header's bytes are reserved, the
	// payload is encoded behind them, and the header, which carries the
	// payload's length and crc, is written into the reserved bytes last.
	size := journalHdrBytes + 8 + allocatorEncodedSize(snap) + 1 + 4
	for i, dd := range d.dicts {
		size += 4 + len(dd.name) + 4 + len(manifests[i])
	}
	for _, pw := range pages {
		size += 8 + 4 + len(pw.data)
	}
	p := kv.Enc{Buf: make([]byte, journalHdrBytes, size)}
	p.U64(lastLSN)
	encodeAllocator(&p, snap)
	p.U8(uint8(len(d.dicts)))
	for i, dd := range d.dicts {
		p.Bytes([]byte(dd.name))
		p.Bytes(manifests[i])
	}
	p.U32(uint32(len(pages)))
	for _, pw := range pages {
		p.U64(uint64(pw.off))
		p.Bytes(pw.data)
	}
	frame := p.Buf
	epoch := d.epoch + 1
	h := kv.Enc{Buf: frame[:0]}
	h.U32(journalMagic)
	h.U64(epoch)
	h.U64(uint64(len(frame) - journalHdrBytes))
	h.U32(crc32.ChecksumIEEE(frame[journalHdrBytes:]))
	h.U32(crc32.ChecksumIEEE(h.Buf))
	if int64(len(frame)) > d.cfg.JournalBytes {
		// Too big to seal. The pages MUST still be installed: Flush already
		// marked them clean, so if their bytes never reached the device a
		// later eviction + reload would read stale or zero extents. The
		// image stays correct for runtime reads; what is lost — and recorded
		// as the sticky error — is crash-consistency.
		for _, pw := range pages {
			e.owner.WriteAt(pw.data, pw.off)
			d.redoBytes += int64(len(pw.data))
		}
		d.err = fmt.Errorf("engine: checkpoint of %d bytes exceeds journal region %d (raise JournalBytes)",
			len(frame), d.cfg.JournalBytes)
		return d.err
	}
	e.owner.WriteAt(frame, d.journalOff[d.nextSlot])
	d.journalBytes += int64(len(frame))

	// 5. Install the pages in place. A crash here is covered by the seal.
	for _, pw := range pages {
		e.owner.WriteAt(pw.data, pw.off)
		d.redoBytes += int64(len(pw.data))
	}

	// 6. Truncate the WAL (epoch bump; drops any pending group, whose
	// applied records the journal now covers — and, when shipping is on,
	// hands exactly those covered records to the ship ring; a pending record
	// past lastLSN was never applied and will be re-appended by the caller).
	d.log.CheckpointCovering(lastLSN)

	d.epoch = epoch
	d.lastLSN = lastLSN
	d.nextSlot ^= 1
	d.checkpoints++
	return nil
}

// allocatorEncodedSize is the number of bytes encodeAllocator appends for s.
func allocatorEncodedSize(s storage.AllocatorState) int {
	n := 8 + 8 + 4
	for _, offs := range s.Free {
		n += 8 + 4 + 8*len(offs)
	}
	return n
}

// encodeAllocator serializes an allocator snapshot deterministically.
func encodeAllocator(e *kv.Enc, s storage.AllocatorState) {
	e.U64(uint64(s.Next))
	e.U64(uint64(s.Capacity))
	sizes := make([]int64, 0, len(s.Free))
	for size := range s.Free {
		sizes = append(sizes, size)
	}
	for i := 1; i < len(sizes); i++ { // insertion sort: tiny n, no new import
		for j := i; j > 0 && sizes[j-1] > sizes[j]; j-- {
			sizes[j-1], sizes[j] = sizes[j], sizes[j-1]
		}
	}
	e.U32(uint32(len(sizes)))
	for _, size := range sizes {
		offs := s.Free[size]
		e.U64(uint64(size))
		e.U32(uint32(len(offs)))
		for _, off := range offs {
			e.U64(uint64(off))
		}
	}
}

// decodeAllocator reverses encodeAllocator.
func decodeAllocator(d *kv.Dec) storage.AllocatorState {
	s := storage.AllocatorState{Free: make(map[int64][]int64)}
	s.Next = int64(d.U64())
	s.Capacity = int64(d.U64())
	nSizes := d.U32()
	for i := uint32(0); i < nSizes && d.Err == nil; i++ {
		size := int64(d.U64())
		n := d.U32()
		offs := make([]int64, 0, n)
		for j := uint32(0); j < n && d.Err == nil; j++ {
			offs = append(offs, int64(d.U64()))
		}
		s.Free[size] = offs
	}
	return s
}

// DurabilityStats reports the durability subsystem's counters: the
// paper-§3 logging and checkpointing write traffic, separable from the
// trees' own amplification.
type DurabilityStats struct {
	Enabled     bool
	Epoch       uint64 // checkpoint epoch of the last sealed journal
	LastLSN     uint64 // highest WAL seq the last checkpoint covers
	Checkpoints int64

	LogRecords int64 // records appended
	LogCommits int64 // group commits
	LogBytes   int64 // WAL bytes written (frames + headers)

	JournalBytes int64 // sealed checkpoint journal bytes written
	RedoBytes    int64 // in-place page installs (the double-write's 2nd copy)

	PendingFree int   // extents quarantined until the next checkpoint
	Err         error // sticky durability failure, nil while healthy
}

// DurabilityStats returns a snapshot (zero value if durability is off).
func (e *Engine) DurabilityStats() DurabilityStats {
	if e.dur == nil {
		return DurabilityStats{}
	}
	d := e.dur
	d.mu.Lock()
	defer d.mu.Unlock()
	e.allocMu.Lock()
	pending := len(e.pendingFree)
	e.allocMu.Unlock()
	return DurabilityStats{
		Enabled:      true,
		Epoch:        d.epoch,
		LastLSN:      d.lastLSN,
		Checkpoints:  d.checkpoints,
		LogRecords:   d.log.Records,
		LogCommits:   d.log.Commits,
		LogBytes:     d.log.BytesWritten,
		JournalBytes: d.journalBytes,
		RedoBytes:    d.redoBytes,
		PendingFree:  pending,
		Err:          d.err,
	}
}

// LogSeq returns the sequence number of the most recently logged mutation
// (0 before the first). Crash tests use it to mark each operation's commit
// identity.
func (e *Engine) LogSeq() uint64 {
	if e.dur == nil {
		return 0
	}
	e.dur.mu.Lock()
	defer e.dur.mu.Unlock()
	return e.dur.log.LastSeq()
}

// Durability: WAL-backed mutations, copy-on-write checkpoints through a
// block translation table, and graceful degradation — the engine half of the
// paper-§3 observation that "write IOs in the B-tree may also trigger write
// IOs from logging and checkpointing".
//
// With durability enabled, every mutation on a registered Dictionary is
// appended to a group-committing WAL before the structure applies it
// (write-ahead rule), and the pager switches to a no-steal policy (dirty pages
// never reach the device between checkpoints).
//
// Every PageID a tree holds is logical: the offset its page was allocated
// at. The translation table maps each one to the extent the page lives in
// now, and Client.Read and WriteAt go through it. One write rule keeps the
// last checkpoint intact on the device: a write goes to its page's current
// extent unless the last sealed table references that extent; then the page
// moves to a fresh extent first. The extent it leaves waits in quarantine,
// with the extents of freed pages, until the next seal.
//
// A checkpoint therefore writes each dirty page once, wherever the rule puts
// it, and then seals: the translation table, the allocator, every
// dictionary's manifest and the covered LSN go to a table record in a fresh
// extent, and the older of two superblock slots at the start of the device is
// pointed at it. Then the quarantine is released and the WAL truncated.
// Whatever instant a crash hits, the newest valid superblock names a whole
// checkpoint, and the WAL's committed suffix replays the rest (see
// recover.go).
//
// Nothing in this file panics: a durability failure (log overflow that a
// checkpoint cannot clear, ...) records a sticky error, mutations keep
// applying un-logged so availability is preserved, and the error is reported
// by Checkpoint, Sync, and DurabilityStats.
package engine

import (
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"sync"

	"iomodels/internal/kv"
	"iomodels/internal/obs"
	"iomodels/internal/wal"
)

// DurabilityConfig sizes the durability subsystem. The zero value of each
// field selects a default.
type DurabilityConfig struct {
	// LogBytes is the WAL region size (default 64 MiB).
	LogBytes int64
	// GroupBytes is the WAL group-commit granularity (default 64 KiB).
	GroupBytes int
	// JournalBytes is the no-steal policy's dirty-set budget: a checkpoint
	// fires when the dirty page set reaches half of it. The default is twice
	// the engine's cache budget plus 4 MiB.
	JournalBytes int64
	// CheckpointEveryBytes triggers an automatic checkpoint once the WAL's
	// durable size crosses it (default LogBytes/2; negative disables this
	// trigger, leaving log-full and explicit checkpoints). Independently of
	// it, a checkpoint always fires when the dirty page set reaches half of
	// JournalBytes.
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
// except the superblock and WAL regions, which only the mu holder writes.
type durability struct {
	mu  sync.Mutex //lint:lockrank 60
	cfg DurabilityConfig

	log      *wal.Log
	nextSlot int    // superblock slot the next seal writes
	epoch    uint64 // epoch of the last seal
	lastLSN  uint64 // highest seq covered by the last seal
	record   extent // the last seal's table record

	dicts  []durDict
	byName map[string]int

	checkpoints int64
	sealBytes   int64
	pageBytes   int64

	err error // sticky: durability lost, availability kept
}

// The superblock: two slots of superBytes each at the start of the device,
// ahead of the WAL region. A seal writes the older one. A slot is a whole
// block, so a torn slot write never reaches the other.
const (
	superMagic    = 0x434B5053 // "CKPS"
	superBytes    = 4 << 10
	superHdrBytes = 4 + 8 + 8 + 8 + 8 + 4 + 4
)

// errNotEnabled is returned by durability entry points on a plain engine.
var errNotEnabled = errors.New("engine: durability not enabled")

// EnableDurability reserves the superblock and WAL regions, creates a fresh
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
	d := e.layoutDurability(cfg)
	log, err := wal.New(d.logConfig(), e.owner)
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

// layoutDurability applies cfg's defaults and reserves the superblock slots
// and the WAL region at the allocator's origin. Used by both
// EnableDurability and Recover, so the offsets always agree.
func (e *Engine) layoutDurability(cfg DurabilityConfig) *durability {
	d := &durability{cfg: cfg.withDefaults(e.pager.Budget()), byName: make(map[string]int)}
	e.Alloc(2*superBytes + d.cfg.LogBytes)
	return d
}

// logConfig places the WAL region directly after the superblock slots.
func (d *durability) logConfig() wal.Config {
	return wal.Config{Offset: 2 * superBytes, Capacity: d.cfg.LogBytes, GroupBytes: d.cfg.GroupBytes}
}

// page is one entry of the block translation table: the page a tree names
// by the offset it was allocated at lives in [phys, phys+size). gen is the
// epoch of the first seal that references phys, so the last seal references
// it while gen <= Engine.sealed.
type page struct {
	name, phys, size int64
	gen              uint64
}

// index returns how many pages are named at or below off. Caller holds
// allocMu.
func (e *Engine) index(off int64) int {
	return sort.Search(len(e.pages), func(i int) bool { return e.pages[i].name > off })
}

// find returns the index of the page whose extent holds the logical offset
// off, or -1. Caller holds allocMu.
func (e *Engine) find(off int64) int {
	if i := e.index(off) - 1; i >= 0 && off < e.pages[i].name+e.pages[i].size {
		return i
	}
	return -1
}

// at returns the device offset the byte at logical offset off lives at; an
// offset no page holds (the WAL, a superblock) is its own. A write follows
// the one write rule: a page whose extent the last seal references first
// moves to a fresh extent, and the one it leaves waits in quarantine. Nothing
// is copied over, because a write rewrites its page from the start. A plain
// engine never seals, so nothing moves there.
func (e *Engine) at(off int64, write bool) int64 {
	if e.dur == nil {
		return off
	}
	e.allocMu.Lock()
	defer e.allocMu.Unlock()
	i := e.find(off)
	if i < 0 {
		return off
	}
	p := &e.pages[i]
	if write && p.gen <= e.sealed {
		e.pendingSpare = append(e.pendingSpare, extent{p.phys, p.size})
		p.phys, p.gen = e.fresh(p.size), e.sealed+1
	}
	return p.phys + off - p.name
}

// fresh returns an extent of size that no page lives in and the last seal
// does not reference: a spare one, or a new one at the high-water mark, never
// a free name. Caller holds allocMu.
func (e *Engine) fresh(size int64) int64 {
	if s := e.spare[size]; len(s) > 0 {
		e.spare[size] = s[:len(s)-1]
		return s[len(s)-1]
	}
	return e.alloc.Bump(size)
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

// Put logs the write, records its version, then applies it.
func (d *Durable) Put(key, value []byte) { d.apply(&Mutation{Kind: kv.Put, Key: key, Value: value}) }

// Delete logs a tombstone, records it as a versioned absence, then applies
// it.
func (d *Durable) Delete(key []byte) bool {
	m := Mutation{Kind: kv.Tombstone, Key: key}
	d.apply(&m)
	return m.Accepted
}

// Upsert logs and applies a Put of the upserted value (see apply).
func (d *Durable) Upsert(key []byte, delta int64) {
	d.apply(&Mutation{Kind: kv.Upsert, Key: key, Delta: delta})
}

// apply logs m with its own trace ids, records its version, then applies it
// and sets m.Accepted. The version bracket (mvcc.begin/end) pins the
// mutation's LSN and holds snapshot opens out of the window between the chain
// append and the structure apply.
//
// An Upsert materializes its post-image — read the current value, apply the
// delta, log a Put of the result — so replay is a pure fold of Put records
// and can never double-apply a delta. This is the durability tax on blind
// upserts the paper's §3 alludes to: the read the Bε-tree's native upsert
// avoids comes back as soon as the operation must be logged with a
// replayable image.
func (d *Durable) apply(m *Mutation) {
	kind, value := m.Kind, m.Value
	pre := func() ([]byte, bool) { return d.dict.Get(m.Key) }
	switch kind {
	case kv.Tombstone:
		value = nil
	case kv.Upsert:
		old, ok, post := fold(d.dict, m.Key, m.Delta)
		kind, value = kv.Put, post
		pre = func() ([]byte, bool) { return old, ok }
	}
	d.eng.logMutation(d.id, kind, m.Key, value, m.TraceID, m.SpanID)
	v := d.eng.mvcc
	v.begin(d.eng.LogSeq(), m.Key, value, kind == kv.Put, pre)
	if kind == kv.Put {
		d.dict.Put(m.Key, value)
		m.Accepted = true
	} else {
		m.Accepted = d.dict.Delete(m.Key)
	}
	v.end()
}

// fold reads key from dict and returns what it read and the value an upsert
// of delta leaves there.
func fold(dict Dictionary, key []byte, delta int64) (old []byte, ok bool, post []byte) {
	old, ok = dict.Get(key)
	post, _ = kv.Message{Kind: kv.Upsert, Value: kv.UpsertDelta(delta)}.Apply(old, ok)
	return old, ok, post
}

var _ Dictionary = (*Durable)(nil)
var _ Upserter = (*Durable)(nil)

// logMutation appends one record, stamped with traceID/spanID, to the WAL
// under the durability mutex, handling log-full by checkpointing and
// retrying, and auto-checkpointing past the configured threshold. On
// unrecoverable failure it records the sticky error and returns: the caller
// applies the mutation anyway (durability degrades, availability does not).
func (e *Engine) logMutation(id uint8, kind kv.Kind, key, value []byte, traceID, spanID uint64) {
	d := e.dur
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return
	}
	// Auto-checkpoint BEFORE appending this record: every record appended
	// so far has been applied by its caller, so the checkpoint's lastLSN is
	// exact. (Checkpointing after the append would cover a sequence number
	// whose mutation the checkpoint cannot contain yet.) Two triggers: the
	// WAL crossing CheckpointEveryBytes, and — always armed, since no-steal
	// means only a checkpoint bounds it — the dirty page set reaching half
	// of JournalBytes, its budget.
	if (d.cfg.CheckpointEveryBytes > 0 && d.log.DurableBytes() >= d.cfg.CheckpointEveryBytes) ||
		e.pager.DirtyBytes() >= d.cfg.JournalBytes/2 {
		if cerr := e.checkpointLocked(); cerr != nil {
			return
		}
	}
	rec := wal.Record{Kind: kind, Dict: id, Key: key, Value: value, TraceID: traceID, SpanID: spanID}
	// The log's device is e.owner (see EnableDurability), so a group that
	// fills inside Append issues its commit IO through the owner client:
	// attribute it — and annotate the owner's open span, if the mutation is
	// being traced — to the WAL layer.
	prev := e.owner.pushLayer(obs.LayerWAL)
	//lint:allowblock d.mu is the durability state machine's own serialization; WAL IO is simulated virtual-time device IO and must stay inside the bracket so log state and engine state advance atomically
	_, err := d.log.Append(rec)
	if errors.Is(err, wal.ErrLogFull) {
		// The group (this record included) no longer fits. Checkpoint to
		// make every APPLIED record durable via the checkpoint — the current
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
// makes everything durable through the checkpoint and drops the group.
func (e *Engine) Sync() error {
	err := e.CommitPending()
	if errors.Is(err, wal.ErrLogFull) {
		return e.Checkpoint()
	}
	return err
}

// Checkpoint makes the engine's entire state durable and truncates the WAL:
// the pager's dirty pages are written back, the translation table, the
// allocator snapshot and the dictionary manifests are sealed, and the log is
// reset. Must be called from the owner context (no pending sim processes).
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
	// Every device IO below (page write-backs, the seal, the WAL header
	// rewrite) runs through the owner client: attribute it to the
	// checkpoint layer.
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

	// 2. Write the dirty page set back, each page once: the buffer its
	// Loader has just encoded is handed over to the extent the write rule
	// picks, a fresh one for every page the last seal references. Until the
	// seal, the device still holds the last checkpoint whole.
	wrote := e.owner.counters.BytesWritten
	e.pager.Flush(e.owner)
	d.pageBytes += e.owner.counters.BytesWritten - wrote

	// 3. Seal, then 4. truncate the WAL (epoch bump; drops any pending group,
	// whose applied records the checkpoint now covers — and, when shipping is
	// on, hands exactly those covered records to the ship ring; a pending
	// record past lastLSN was never applied and will be re-appended by the
	// caller).
	e.seal(lastLSN, manifests)
	d.log.CheckpointCovering(lastLSN)
	d.lastLSN = lastLSN
	d.checkpoints++
	return nil
}

// seal makes the checkpoint of lastLSN durable. The table record — lastLSN,
// the allocator, the spare extents, the manifests and the translation table
// — goes to a fresh extent, and the older superblock slot is pointed at it.
// The record counts the quarantine, and the last seal's record, as released;
// nothing allocates until the superblock is down (the writer holds d.mu and
// the seal's own writes go to device offsets), so nothing reuses them before
// this seal stops referencing them.
func (e *Engine) seal(lastLSN uint64, manifests [][]byte) {
	d := e.dur
	e.allocMu.Lock()
	for _, x := range e.pendingFree {
		e.alloc.Free(x.off, x.size)
	}
	released := e.pendingSpare
	if d.record.size > 0 {
		released = append(released, d.record)
	}
	e.pendingFree, e.pendingSpare = nil, nil
	// Size the record before taking its extent from the spares, which only
	// shortens their encoding; a released extent adds at most a size class of
	// one offset to it.
	snap := e.alloc.Snapshot()
	size := 8 + 16 + freeBytes(snap.Free) + freeBytes(e.spare) + 20*len(released) + 1 + 4 + 24*len(e.pages)
	for i, dd := range d.dicts {
		size += 4 + len(dd.name) + 4 + len(manifests[i])
	}
	rec := extent{size: superBytes}
	for rec.size < int64(size) {
		rec.size *= 2
	}
	rec.off = e.fresh(rec.size)
	for _, x := range released {
		e.spare[x.size] = append(e.spare[x.size], x.off)
	}
	p := kv.Enc{Buf: make([]byte, 0, size)}
	p.U64(lastLSN)
	p.U64(uint64(e.alloc.HighWater()))
	p.U64(uint64(snap.Capacity))
	encodeFree(&p, snap.Free)
	encodeFree(&p, e.spare)
	p.U8(uint8(len(d.dicts)))
	for i, dd := range d.dicts {
		p.Bytes([]byte(dd.name))
		p.Bytes(manifests[i])
	}
	p.U32(uint32(len(e.pages)))
	for _, pg := range e.pages {
		p.U64(uint64(pg.name))
		p.U64(uint64(pg.phys))
		p.U64(uint64(pg.size))
	}
	e.allocMu.Unlock()

	epoch := d.epoch + 1
	h := kv.Enc{Buf: make([]byte, 0, superHdrBytes)}
	h.U32(superMagic)
	h.U64(epoch)
	h.U64(uint64(rec.off))
	h.U64(uint64(rec.size))
	h.U64(uint64(len(p.Buf)))
	h.U32(crc32.ChecksumIEEE(p.Buf))
	h.U32(crc32.ChecksumIEEE(h.Buf))
	e.owner.write(p.Buf, rec.off, false)
	e.owner.write(h.Buf, int64(d.nextSlot)*superBytes, false)
	d.sealBytes += int64(len(p.Buf) + len(h.Buf))

	e.allocMu.Lock()
	e.sealed = epoch
	e.allocMu.Unlock()
	d.epoch, d.record, d.nextSlot = epoch, rec, d.nextSlot^1
}

// freeBytes is the number of bytes encodeFree appends for free.
func freeBytes(free map[int64][]int64) int {
	n := 4
	for _, offs := range free {
		n += 8 + 4 + 8*len(offs)
	}
	return n
}

// encodeFree serializes free lists by size deterministically.
func encodeFree(e *kv.Enc, free map[int64][]int64) {
	sizes := make([]int64, 0, len(free))
	for size := range free {
		sizes = append(sizes, size)
	}
	slices.Sort(sizes)
	e.U32(uint32(len(sizes)))
	for _, size := range sizes {
		offs := free[size]
		e.U64(uint64(size))
		e.U32(uint32(len(offs)))
		for _, off := range offs {
			e.U64(uint64(off))
		}
	}
}

// decodeFree reverses encodeFree.
func decodeFree(d *kv.Dec) map[int64][]int64 {
	free := make(map[int64][]int64)
	nSizes := d.U32()
	for i := uint32(0); i < nSizes && d.Err == nil; i++ {
		size := int64(d.U64())
		n := d.U32()
		offs := make([]int64, 0, n)
		for j := uint32(0); j < n && d.Err == nil; j++ {
			offs = append(offs, int64(d.U64()))
		}
		free[size] = offs
	}
	return free
}

// DurabilityStats reports the durability subsystem's counters: the
// paper-§3 logging and checkpointing write traffic, separable from the
// trees' own amplification.
type DurabilityStats struct {
	Enabled     bool
	Epoch       uint64 // checkpoint epoch of the last seal
	LastLSN     uint64 // highest WAL seq the last checkpoint covers
	Checkpoints int64

	LogRecords int64 // records appended
	LogCommits int64 // group commits
	LogBytes   int64 // WAL bytes written (frames + headers)

	JournalBytes int64 // bytes the seals wrote: table records and superblocks
	RedoBytes    int64 // page bytes checkpoints wrote back

	PendingFree int   // extents quarantined until the next seal
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
	pending := len(e.pendingSpare)
	e.allocMu.Unlock()
	return DurabilityStats{
		Enabled:      true,
		Epoch:        d.epoch,
		LastLSN:      d.lastLSN,
		Checkpoints:  d.checkpoints,
		LogRecords:   d.log.Records,
		LogCommits:   d.log.Commits,
		LogBytes:     d.log.BytesWritten,
		JournalBytes: d.sealBytes,
		RedoBytes:    d.pageBytes,
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

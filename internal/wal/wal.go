// Package wal implements a write-ahead log on a simulated device.
//
// The paper's §3 notes that "even when reads and writes have about the same
// cost, other aspects of the system can make writes more expensive. For
// example, modifications to the data structure may be logged, and so write
// IOs in the B-tree may also trigger write IOs from logging and
// checkpointing." This package makes that cost concrete: records are
// appended sequentially (cheap on both device families), fsync-like commits
// cut a group-commit boundary, and checkpoints truncate the log. Attaching
// a logger to a workload adds exactly the write traffic the paper alludes
// to, measurable through the disk counters.
//
// The log is recoverable from the device image alone. Every record carries
// a sequence number, and commits are sealed into epoch-stamped frames:
//
//	region:  [header slot A | header slot B | frame | frame | ...]
//	header:  magic | epoch | startSeq | crc           (dual slots, ping-pong)
//	frame:   magic | epoch | firstSeq | count | payloadLen | payloadCRC | hdrCRC
//	record:  kind | dict | seq | key | value          (inside the payload)
//
// Replay scans the on-disk frame area and stops at the first frame that
// fails validation — wrong magic, wrong epoch, a sequence number that does
// not continue the chain, or a checksum mismatch — so a torn tail loses
// only the uncommitted suffix, and records written before the last
// Checkpoint (whose epoch bump rewrites the header and invalidates them)
// are never resurrected even though their CRCs still validate.
//
// Nothing in this package panics: filling the log returns ErrLogFull so the
// caller can checkpoint and retry, and configurations that could never
// commit a single group are rejected up front by New/Open.
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"

	"iomodels/internal/kv"
)

// Device is the byte-addressed medium the log lives on. Both *storage.Disk
// and *engine.Client satisfy it. Read returns n bytes at off, which the log
// only reads.
type Device interface {
	Read(off int64, n int) []byte
	WriteAt(p []byte, off int64)
}

// Config shapes a log.
type Config struct {
	// Offset and Capacity delimit the device region the log may use.
	Offset   int64
	Capacity int64
	// GroupBytes is the commit granularity: records accumulate in memory
	// and are written as one sequential IO per commit group (group commit).
	GroupBytes int
}

// DefaultConfig places a 64 MiB log at the given offset with 64 KiB groups.
func DefaultConfig(offset int64) Config {
	return Config{Offset: offset, Capacity: 64 << 20, GroupBytes: 64 << 10}
}

// Record is one logged operation. Dict routes the record to a dictionary
// when one log serves several (the engine's durability layer assigns IDs
// in registration order); Seq is assigned by Append.
//
// TraceID/SpanID are transient trace annotations: they identify the traced
// request that caused the record, ride the in-memory ship tail to
// replication subscribers, and are NOT persisted — a record replayed from
// the device image carries zeros.
type Record struct {
	Seq     uint64
	Kind    kv.Kind // Put / Tombstone / Upsert, as in the trees
	Dict    uint8
	Key     []byte
	Value   []byte
	TraceID uint64
	SpanID  uint64
}

// ErrLogFull reports that committing the pending group would overflow the
// log region. The pending records are kept: checkpoint (which truncates the
// log) and retry.
var ErrLogFull = errors.New("wal: log full (checkpoint and retry)")

const (
	headerMagic  = 0x57414C48 // "WALH"
	frameMagic   = 0x57414C46 // "WALF"
	headerBytes  = 4 + 8 + 8 + 4
	frameHdrSize = 4 + 8 + 8 + 4 + 4 + 4 + 4
)

// Log is a write-ahead log. Not safe for concurrent use (the engine's
// durability layer serializes access with a mutex).
type Log struct {
	cfg Config
	dev Device

	buf      []byte // pending (uncommitted) frame payload
	bufCount uint32 // records in buf
	bufFirst uint64 // seq of the first record in buf
	frame    []byte // Commit's frame image (header + payload), reused

	// ship is the log-shipping tail: the appended-but-not-yet-durable records
	// while a commit hook is attached (SetOnCommit). Until a record is
	// durable its Key/Value alias its encoding in buf — append-only until the
	// group is sealed or dropped, so the bytes hold still even when buf
	// regrows. Records move from ship to the hook the moment they become
	// durable — a group commit, or a checkpoint that covers them instead —
	// and only then are their payloads copied out of buf.
	ship     []Record
	onCommit func([]Record)

	head     int64  // committed frame bytes in the current epoch
	epoch    uint64 // current epoch; bumped by Checkpoint
	startSeq uint64 // first seq belonging to the current epoch
	nextSeq  uint64 // seq the next appended record receives
	slot     int    // header slot the current epoch was written to

	// Records counts appended records; Commits counts group commits.
	Records int64
	Commits int64
	// BytesWritten counts bytes this Log wrote to the device (headers and
	// frames): the paper-§3 logging traffic.
	BytesWritten int64
}

func validate(cfg Config) error {
	if cfg.Capacity <= 0 || cfg.GroupBytes <= 0 || cfg.Offset < 0 {
		return fmt.Errorf("wal: invalid config %+v", cfg)
	}
	if int64(cfg.GroupBytes)+frameHdrSize > cfg.Capacity-2*headerBytes {
		return fmt.Errorf("wal: capacity %d cannot fit a single %d-byte group",
			cfg.Capacity, cfg.GroupBytes)
	}
	return nil
}

// usable is the frame area's size.
func (l *Log) usable() int64 { return l.cfg.Capacity - 2*headerBytes }

// frameStart is the device offset of the frame area.
func (l *Log) frameStart() int64 { return l.cfg.Offset + 2*headerBytes }

// New creates an empty log on dev, overwriting whatever the region held.
func New(cfg Config, dev Device) (*Log, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	l := &Log{cfg: cfg, dev: dev, epoch: 1, startSeq: 1, nextSeq: 1}
	// Invalidate both header slots and the first frame so a recycled region
	// cannot resurrect old records, then seal the fresh epoch into slot 0.
	zero := make([]byte, 2*headerBytes+frameHdrSize)
	dev.WriteAt(zero, cfg.Offset)
	l.BytesWritten += int64(len(zero))
	l.writeHeader(0)
	return l, nil
}

// Open attaches to an existing log region, recovering the current epoch and
// the true committed head from the device image alone. Use Replay to read
// the committed records back.
func Open(cfg Config, dev Device) (*Log, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	l := &Log{cfg: cfg, dev: dev}
	epoch, startSeq, slot, ok := l.readHeaders()
	if !ok {
		return nil, fmt.Errorf("wal: no valid header in region at offset %d (not a log?)", cfg.Offset)
	}
	l.epoch, l.startSeq, l.slot = epoch, startSeq, slot
	head, count := l.scan(nil)
	l.head = head
	l.nextSeq = startSeq + uint64(count)
	return l, nil
}

// writeHeader seals the current epoch into the given slot.
func (l *Log) writeHeader(slot int) {
	var e kv.Enc
	e.U32(headerMagic)
	e.U64(l.epoch)
	e.U64(l.startSeq)
	e.U32(crc32.ChecksumIEEE(e.Buf))
	l.dev.WriteAt(e.Buf, l.cfg.Offset+int64(slot)*headerBytes)
	l.BytesWritten += int64(len(e.Buf))
	l.slot = slot
}

// readHeaders validates both header slots and returns the highest valid
// epoch. A torn header write leaves the other slot (the previous epoch)
// authoritative.
func (l *Log) readHeaders() (epoch, startSeq uint64, slot int, ok bool) {
	buf := l.dev.Read(l.cfg.Offset, 2*headerBytes)
	for s := 0; s < 2; s++ {
		d := kv.Dec{Buf: buf[s*headerBytes : (s+1)*headerBytes]}
		magic := d.U32()
		ep := d.U64()
		ss := d.U64()
		sum := d.U32()
		if d.Err != nil || magic != headerMagic {
			continue
		}
		if crc32.ChecksumIEEE(d.Buf[:headerBytes-4]) != sum {
			continue
		}
		if !ok || ep > epoch {
			epoch, startSeq, slot, ok = ep, ss, s, true
		}
	}
	return epoch, startSeq, slot, ok
}

// scan walks the frame area validating frames of the current epoch, calling
// visit (if non-nil) for each record, and returns the byte length of the
// valid committed prefix and its record count. It stops at the first frame
// that fails any check: that is the torn tail (or the stale remains of a
// previous epoch).
func (l *Log) scan(visit func(Record) bool) (head int64, count uint64) {
	off := l.frameStart()
	end := off + l.usable()
	expectSeq := l.startSeq
	for off+frameHdrSize <= end {
		hdr := l.dev.Read(off, frameHdrSize)
		d := kv.Dec{Buf: hdr}
		magic := d.U32()
		epoch := d.U64()
		firstSeq := d.U64()
		n := d.U32()
		payloadLen := d.U32()
		payloadCRC := d.U32()
		hdrCRC := d.U32()
		if magic != frameMagic || epoch != l.epoch || firstSeq != expectSeq {
			break
		}
		if crc32.ChecksumIEEE(hdr[:frameHdrSize-4]) != hdrCRC {
			break
		}
		if n == 0 || off+frameHdrSize+int64(payloadLen) > end {
			break
		}
		payload := l.dev.Read(off+frameHdrSize, int(payloadLen))
		if crc32.ChecksumIEEE(payload) != payloadCRC {
			break
		}
		recs, ok := decodeRecords(payload, firstSeq, n)
		if !ok {
			break
		}
		for _, r := range recs {
			if visit != nil && !visit(r) {
				return head, count
			}
		}
		off += frameHdrSize + int64(payloadLen)
		head = off - l.frameStart()
		count += uint64(n)
		expectSeq = firstSeq + uint64(n)
	}
	return head, count
}

// decodeRecords decodes a frame payload, checking the sequence chain.
func decodeRecords(payload []byte, firstSeq uint64, n uint32) ([]Record, bool) {
	d := kv.Dec{Buf: payload}
	recs := make([]Record, 0, n)
	for i := uint32(0); i < n; i++ {
		var r Record
		r.Kind = kv.Kind(d.U8())
		r.Dict = d.U8()
		r.Seq = d.U64()
		// A replayed record outlives its frame (recovery hands it to a tree,
		// which may keep it), so key and value are copied once, not pinned.
		e := d.Entry().Clone()
		r.Key, r.Value = e.Key, e.Value
		if d.Err != nil || r.Seq != firstSeq+uint64(i) || len(r.Key) == 0 {
			return nil, false
		}
		switch r.Kind {
		case kv.Put, kv.Tombstone, kv.Upsert:
		default:
			return nil, false
		}
		recs = append(recs, r)
	}
	if d.Off != len(payload) {
		return nil, false
	}
	return recs, true
}

// DurableBytes reports the committed frame bytes of the current epoch.
func (l *Log) DurableBytes() int64 { return l.head }

// Epoch returns the current checkpoint epoch.
func (l *Log) Epoch() uint64 { return l.epoch }

// LastSeq returns the sequence number of the most recently appended record
// (0 before the first append).
func (l *Log) LastSeq() uint64 { return l.nextSeq - 1 }

// SetOnCommit attaches the log-shipping hook: fn is called, under the
// caller's own serialization (the Log is single-threaded by contract), with
// every record exactly once at the moment it becomes durable — sealed into a
// committed frame, or covered by a checkpoint (CheckpointCovering).
// Append's callers may reuse their key/value buffers at once: the log never
// hands the hook caller memory. nil detaches (and drops any untailed
// records).
//
// Ownership: the []Record is the log's own tail and is valid only during the
// call — copy out the Records to keep them. The bytes their Key/Value point
// to are the receiver's: one freshly allocated slab per call, which the log
// never writes or reads again, so the Records may be retained by reference.
// (The slab lives as long as any one slice into it does.)
func (l *Log) SetOnCommit(fn func([]Record)) {
	l.onCommit = fn
	if fn == nil {
		l.ship = l.ship[:0]
	}
}

// TailFrom replays the committed records of the current epoch whose sequence
// number is strictly greater than after, in append order, from the device
// image. It is the ship-subscriber's backfill: everything the log still
// holds on disk, before the live OnCommit stream takes over. Returns the
// number of records visited.
func (l *Log) TailFrom(after uint64, fn func(Record) bool) int {
	n := 0
	l.scan(func(r Record) bool {
		if r.Seq <= after {
			return true
		}
		n++
		return fn == nil || fn(r)
	})
	return n
}

// Append adds a record to the current commit group, committing the group
// when it reaches GroupBytes. It returns the record's assigned sequence
// number. On ErrLogFull the record stays pending (with its sequence number
// burned): checkpoint and retry the commit, or re-append after a checkpoint
// that dropped the pending group.
func (l *Log) Append(r Record) (uint64, error) {
	if len(r.Key) == 0 {
		return 0, errors.New("wal: empty key")
	}
	switch r.Kind {
	case kv.Put, kv.Tombstone, kv.Upsert:
	default:
		return 0, fmt.Errorf("wal: invalid record kind %d", r.Kind)
	}
	if len(l.buf) == 0 {
		l.bufFirst = l.nextSeq
	}
	seq := l.nextSeq
	l.nextSeq++
	e := kv.Enc{Buf: l.buf}
	e.U8(uint8(r.Kind))
	e.U8(r.Dict)
	e.U64(seq)
	e.Bytes(r.Key)
	keyEnd := len(e.Buf)
	e.Bytes(r.Value)
	l.buf = e.Buf
	l.bufCount++
	l.Records++
	if l.onCommit != nil {
		// A length-prefixed byte string ends with the bytes themselves.
		r.Seq = seq
		r.Key = l.buf[keyEnd-len(r.Key) : keyEnd]
		r.Value = l.buf[len(l.buf)-len(r.Value):]
		l.ship = append(l.ship, r)
	}
	if len(l.buf) >= l.cfg.GroupBytes {
		if err := l.Commit(); err != nil {
			return seq, err
		}
	}
	return seq, nil
}

// Commit seals the pending group into a frame and writes it with one
// sequential IO. If the frame would overflow the log region it returns
// ErrLogFull and keeps the group pending.
func (l *Log) Commit() error {
	if len(l.buf) == 0 {
		return nil
	}
	frameLen := int64(frameHdrSize + len(l.buf))
	if l.head+frameLen > l.usable() {
		return fmt.Errorf("%w: need %d bytes at head %d of %d",
			ErrLogFull, frameLen, l.head, l.usable())
	}
	e := kv.Enc{Buf: l.frame[:0]}
	e.U32(frameMagic)
	e.U64(l.epoch)
	e.U64(l.bufFirst)
	e.U32(l.bufCount)
	e.U32(uint32(len(l.buf)))
	e.U32(crc32.ChecksumIEEE(l.buf))
	e.U32(crc32.ChecksumIEEE(e.Buf))
	l.frame = append(e.Buf, l.buf...)
	l.dev.WriteAt(l.frame, l.frameStart()+l.head)
	l.BytesWritten += frameLen
	l.head += frameLen
	l.Commits++
	l.shipThrough(l.LastSeq())
	l.buf = l.buf[:0]
	l.bufCount = 0
	return nil
}

// shipThrough hands every tailed record with Seq <= lsn to the commit hook
// and empties the ship tail, which keeps its backing array: a commit makes
// the whole tail durable, and the records a checkpoint does not cover leave
// with the pending group. The records' payloads move out of buf into one slab
// the hook's receiver owns (see SetOnCommit); callers reset buf only
// afterwards. No-op without a hook (the tail is empty).
func (l *Log) shipThrough(lsn uint64) {
	n, size := 0, 0
	for n < len(l.ship) && l.ship[n].Seq <= lsn {
		size += len(l.ship[n].Key) + len(l.ship[n].Value)
		n++
	}
	if n > 0 {
		slab := make([]byte, 0, size)
		own := func(b []byte) []byte {
			if len(b) == 0 {
				return nil
			}
			slab = append(slab, b...)
			return slab[len(slab)-len(b) : len(slab) : len(slab)]
		}
		for i := range l.ship[:n] {
			r := &l.ship[i]
			r.Key, r.Value = own(r.Key), own(r.Value)
		}
		l.onCommit(l.ship[:n])
	}
	l.ship = l.ship[:0]
}

// Checkpoint declares all logged state durably applied and truncates the
// log: the epoch is bumped and sealed into the alternate header slot, which
// atomically invalidates every frame on disk (and a torn header write
// leaves the previous epoch's log intact). Any pending uncommitted group is
// dropped — the caller has just made its effects durable by other means; a
// caller that has not yet applied a pending record must re-append it.
func (l *Log) Checkpoint() {
	l.CheckpointCovering(l.LastSeq())
}

// CheckpointCovering is Checkpoint for a caller whose checkpoint covers only
// sequences up to lastLSN (the engine's log-full path: the newest appended
// record burned its sequence number but was never applied, so the checkpoint
// cannot cover it). Tailed records the checkpoint covers are handed to the
// commit hook — they are durable now, through the checkpoint — while newer
// ones are dropped from the tail exactly as they are dropped from the pending
// group: the caller re-appends them, and the re-append re-tails them.
func (l *Log) CheckpointCovering(lastLSN uint64) {
	l.shipThrough(lastLSN)
	l.buf = l.buf[:0]
	l.bufCount = 0
	l.epoch++
	l.startSeq = l.nextSeq
	l.head = 0
	l.writeHeader(l.slot ^ 1)
	// Invalidate the first frame so a stale frame from two epochs ago (same
	// slot parity) can never chain onto the new epoch.
	l.dev.WriteAt(make([]byte, frameHdrSize), l.frameStart())
	l.BytesWritten += frameHdrSize
}

// Replay scans the on-disk region and calls fn for each committed record of
// the current epoch in append order (fn returning false stops early). It
// stops silently at a corrupt or torn frame — the crash-recovery contract:
// a torn tail loses only uncommitted records — and returns how many records
// were visited. Replay reads the device, not memory, so it works on a log
// just attached with Open.
func (l *Log) Replay(fn func(Record) bool) (int, error) {
	n := 0
	l.scan(func(r Record) bool {
		n++
		return fn == nil || fn(r)
	})
	return n, nil
}

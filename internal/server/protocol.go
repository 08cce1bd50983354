// Wire protocol: length-prefixed binary frames over TCP, encoded with the
// repo's kv codec (big-endian integers, u32-length-prefixed byte strings).
//
//	frame   := u32 length | payload (length bytes)
//	request := [ext-block] u8 op | op-specific fields
//	reply   := u8 status | status/op-specific fields
//
// The optional extension block (kv.ExtMagic, see internal/kv/trace.go)
// carries a trace context (trace id, parent span id, flags) and/or the
// stamped-ship-pull flag in front of the op byte. It is opt-in per
// request: an un-extended frame is byte-identical to the legacy encoding,
// and an old server answers an extended frame with a loud protocol error
// (ExtMagic is no valid op) rather than misparsing it.
//
// Requests (client → server):
//
//	Ping
//	Get    key
//	Put    key value
//	Delete key
//	Scan   lo hi limit     (empty lo/hi = unbounded; limit u32)
//	Upsert key delta       (delta u64, two's complement)
//	Stats
//	SnapOpen    u8 hasLSN | u64 lsn    (hasLSN=0: pin the current LSN;
//	            hasLSN=1: time-travel to the named LSN)
//	SnapGet     u64 id | key
//	SnapScan    u64 id | lo hi limit
//	SnapRelease u64 id
//	Hello                              (shard identity + replication positions)
//	ShipPull    u64 after | u32 max    (tail the WAL ship stream past `after`)
//	Promote                            (replica → primary; idempotent on a primary)
//
// Replies (server → client):
//
//	OK       op-specific: Get → value; Scan → u32 n, n×(key value);
//	         Delete → u8 accepted; Stats → JSON bytes; others → empty
//	         SnapOpen → u64 id, u64 lsn
//	         Hello → u32 shard, u32 shards, u8 role, u64 committed, u64 applied
//	         ShipPull → u64 committed, u64 floor, u32 n,
//	                    n×(u8 kind, u64 seq, key value)
//	         ShipPull (stamped-ship extension): each record additionally
//	                    carries u64 commitWallNs, u64 traceID, u64 spanID
//	         Promote → u64 lsn (the promoted node's serving position)
//	NotFound (Get of an absent key)
//	Busy     message      (admission control shed the request; retry later)
//	Err      message
//	SnapExpired message   (snapshot too old, released, or unknown id)
//	NotPrimary message    (mutation sent to a replica; re-route to the primary)
//	ShipGap message       (ship position trimmed; re-bootstrap the replica)
//
// A request payload is decoded with kv.Dec and must be consumed exactly:
// trailing bytes are a protocol error, as is any truncation (Dec's sticky
// Err).
//
// This comment is the one prose specification of the format, and this file
// the only code that builds or parses payloads: request/encodeRequest/
// decodeRequest for one direction, reply/encodeReply/decodeReply for the
// other. The server's serve* functions return a reply value, the client's
// methods read one.
package server

import (
	"errors"
	"fmt"
	"io"

	"iomodels/internal/engine"
	"iomodels/internal/kv"
	"iomodels/internal/wal"
)

// Op codes.
type Op uint8

// Request operations.
const (
	OpPing Op = iota + 1
	OpGet
	OpPut
	OpDelete
	OpScan
	OpUpsert
	OpStats
	OpSnapOpen
	OpSnapGet
	OpSnapScan
	OpSnapRelease
	OpHello
	OpShipPull
	OpPromote
)

// opNames is the one op name table: Op.String, the metrics layer's per-op
// histograms and the /stats and /metrics labels all read it.
var opNames = [...]string{
	OpPing: "ping", OpGet: "get", OpPut: "put", OpDelete: "delete", OpScan: "scan",
	OpUpsert: "upsert", OpStats: "stats", OpSnapOpen: "snap-open", OpSnapGet: "snap-get",
	OpSnapScan: "snap-scan", OpSnapRelease: "snap-release", OpHello: "hello",
	OpShipPull: "ship-pull", OpPromote: "promote",
}

// nameOf looks code up in a name table; codes outside it render as kind(code).
func nameOf(names []string, kind string, code uint8) string {
	if int(code) < len(names) && names[code] != "" {
		return names[code]
	}
	return fmt.Sprintf("%s(%d)", kind, code)
}

func (o Op) String() string { return nameOf(opNames[:], "op", uint8(o)) }

// Status codes.
type Status uint8

// Reply statuses.
const (
	StatusOK Status = iota + 1
	StatusNotFound
	StatusBusy
	StatusErr
	StatusSnapExpired
	StatusNotPrimary
	StatusShipGap
)

// statusNames names the statuses; its length also sizes the server's
// per-status reply counters.
var statusNames = [...]string{
	StatusOK: "ok", StatusNotFound: "not-found", StatusBusy: "busy", StatusErr: "error",
	StatusSnapExpired: "snap-expired", StatusNotPrimary: "not-primary", StatusShipGap: "ship-gap",
}

func (s Status) String() string { return nameOf(statusNames[:], "status", uint8(s)) }

// statusSentinels is the one status → error mapping: every failure status
// carries a message, and the client wraps it in the status's typed sentinel
// so callers dispatch with errors.Is (StatusErr has none: a plain error).
var statusSentinels = map[Status]error{
	StatusBusy:        ErrBusy,
	StatusErr:         nil,
	StatusSnapExpired: ErrSnapExpired,
	StatusNotPrimary:  ErrNotPrimary,
	StatusShipGap:     ErrShipGap,
}

// DefaultMaxFrame bounds a frame payload: large enough for any node-sized
// value or a full scan page, small enough that a hostile length prefix
// cannot balloon memory.
const DefaultMaxFrame = 1 << 20

// frame length prefix size.
const frameHdr = 4

// errFrameTooLarge is returned when a peer announces a frame beyond the
// limit.
var errFrameTooLarge = errors.New("server: frame exceeds size limit")

// readFrame reads one length-prefixed frame into a fresh buffer.
func readFrame(r io.Reader, maxFrame int) ([]byte, error) {
	var hdr [frameHdr]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3]))
	if n < 0 || n > maxFrame {
		return nil, fmt.Errorf("%w (%d > %d)", errFrameTooLarge, uint32(n), maxFrame)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("server: truncated frame: %w", err)
	}
	return buf, nil
}

// writeFrame writes payload as one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	hdr := [frameHdr]byte{
		byte(len(payload) >> 24), byte(len(payload) >> 16),
		byte(len(payload) >> 8), byte(len(payload)),
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// request is a decoded client request.
type request struct {
	op    Op
	key   []byte
	value []byte
	lo    []byte // scan
	hi    []byte // scan
	limit int    // scan
	delta int64  // upsert

	snapID uint64 // snap-get/scan/release: the connection-local snapshot id
	atLSN  bool   // snap-open: pin the named LSN instead of the current one
	lsn    uint64 // snap-open with atLSN; ship-pull's `after` position

	tc     kv.TraceContext // carried trace context (zero when absent)
	stamps bool            // ship-pull: answer with stamped records
}

// maxShipBatch bounds one ShipPull's record count: with kvserve-scale keys
// and values a full batch stays well inside DefaultMaxFrame.
const maxShipBatch = 4096

// decodeRequest parses an untrusted request payload. Every error is a
// protocol error (the connection is answered with StatusErr but kept open).
func decodeRequest(buf []byte, maxScanLimit int) (request, error) {
	d := &kv.Dec{Buf: buf}
	var req request
	ext := kv.DecodeExt(d)
	if d.Err != nil {
		return req, fmt.Errorf("server: malformed extension block: %w", d.Err)
	}
	req.tc = ext.Trace
	req.stamps = ext.StampedShip
	req.op = Op(d.U8())
	switch req.op {
	case OpPing, OpStats:
	case OpGet, OpDelete:
		req.key = d.Bytes()
	case OpPut:
		req.key = d.Bytes()
		req.value = d.Bytes()
	case OpUpsert:
		req.key = d.Bytes()
		req.delta = int64(d.U64())
	case OpScan:
		req.lo = d.Bytes()
		req.hi = d.Bytes()
		req.limit = int(d.U32())
	case OpSnapOpen:
		req.atLSN = d.U8() != 0
		req.lsn = d.U64()
	case OpSnapGet:
		req.snapID = d.U64()
		req.key = d.Bytes()
	case OpSnapScan:
		req.snapID = d.U64()
		req.lo = d.Bytes()
		req.hi = d.Bytes()
		req.limit = int(d.U32())
	case OpSnapRelease:
		req.snapID = d.U64()
	case OpHello, OpPromote:
	case OpShipPull:
		req.lsn = d.U64()
		req.limit = int(d.U32())
	default:
		return req, fmt.Errorf("server: unknown op %d", uint8(req.op))
	}
	if d.Err != nil {
		return req, fmt.Errorf("server: malformed %v request: %w", req.op, d.Err)
	}
	if d.Off != len(buf) {
		return req, fmt.Errorf("server: %v request has %d trailing bytes", req.op, len(buf)-d.Off)
	}
	switch req.op {
	case OpGet, OpPut, OpDelete, OpUpsert, OpSnapGet:
		if len(req.key) == 0 {
			return req, fmt.Errorf("server: %v request with empty key", req.op)
		}
	case OpScan, OpSnapScan:
		if req.limit <= 0 || req.limit > maxScanLimit {
			return req, fmt.Errorf("server: scan limit %d out of range (1..%d)", req.limit, maxScanLimit)
		}
	case OpShipPull:
		if req.limit <= 0 || req.limit > maxShipBatch {
			return req, fmt.Errorf("server: ship batch %d out of range (1..%d)", req.limit, maxShipBatch)
		}
	}
	return req, nil
}

// encodeRequest builds a request payload (the client side of decodeRequest).
func encodeRequest(req request) []byte {
	var e kv.Enc
	e.AppendExt(kv.Ext{Trace: req.tc, StampedShip: req.stamps})
	e.U8(uint8(req.op))
	switch req.op {
	case OpPing, OpStats:
	case OpGet, OpDelete:
		e.Bytes(req.key)
	case OpPut:
		e.Bytes(req.key)
		e.Bytes(req.value)
	case OpUpsert:
		e.Bytes(req.key)
		e.U64(uint64(req.delta))
	case OpScan:
		e.Bytes(req.lo)
		e.Bytes(req.hi)
		e.U32(uint32(req.limit))
	case OpSnapOpen:
		if req.atLSN {
			e.U8(1)
		} else {
			e.U8(0)
		}
		e.U64(req.lsn)
	case OpSnapGet:
		e.U64(req.snapID)
		e.Bytes(req.key)
	case OpSnapScan:
		e.U64(req.snapID)
		e.Bytes(req.lo)
		e.Bytes(req.hi)
		e.U32(uint32(req.limit))
	case OpSnapRelease:
		e.U64(req.snapID)
	case OpHello, OpPromote:
	case OpShipPull:
		e.U64(req.lsn)
		e.U32(uint32(req.limit))
	default:
		panic(fmt.Sprintf("server: encodeRequest of invalid op %d", uint8(req.op)))
	}
	return e.Buf
}

// reply is a server reply before encoding / after decoding: the mirror of
// request. Which fields an OK reply carries depends on the request's op (see
// the table in the file header); a failure status carries only msg.
type reply struct {
	status Status
	msg    string // every status in statusSentinels

	value    []byte     // get, snap-get: the value; stats: the JSON document
	entries  []kv.Entry // scan, snap-scan
	accepted bool       // delete
	snapID   uint64     // snap-open: the connection-local id
	lsn      uint64     // snap-open: the pinned LSN; promote: the serving position
	info     NodeInfo   // hello

	committed, floor uint64              // ship-pull: the stream's positions
	recs             []engine.ShipRecord // ship-pull; stamps travel only when the request asked
}

// failure builds a failure-status reply.
func failure(s Status, msg string) reply { return reply{status: s, msg: msg} }

// shipFrameBudget bounds the record body of one ShipPull reply: half a frame
// leaves room for the reply envelope and keeps any client's frame limit
// honored. The replica resumes where the batch ends.
const shipFrameBudget = DefaultMaxFrame / 2

// shipFit returns how many leading records of recs one ShipPull reply
// carries: all of them, or as many as it takes to reach shipFrameBudget
// encoded bytes (the record that crosses the budget still rides).
func shipFit(recs []engine.ShipRecord, stamps bool) int {
	size := 0
	for i, r := range recs {
		size += kv.EncodedMessageSize(r.Key, r.Value)
		if stamps {
			size += 3 * 8
		}
		if size >= shipFrameBudget {
			return i + 1
		}
	}
	return len(recs)
}

// encodeReply builds the reply payload for req (the server side of
// decodeReply). A request that failed to decode has op 0; its reply is a
// failure status, which needs no op.
func encodeReply(req request, rep reply) []byte {
	e := kv.Enc{Buf: make([]byte, 0, 1+4+len(rep.value)+len(rep.msg))}
	e.U8(uint8(rep.status))
	if rep.status != StatusOK {
		if _, failed := statusSentinels[rep.status]; failed {
			e.Bytes([]byte(rep.msg))
		}
		return e.Buf // NotFound carries nothing
	}
	switch req.op {
	case OpGet, OpSnapGet, OpStats:
		e.Bytes(rep.value)
	case OpScan, OpSnapScan:
		e.U32(uint32(len(rep.entries)))
		for _, ent := range rep.entries {
			e.Entry(ent)
		}
	case OpDelete:
		if rep.accepted {
			e.U8(1)
		} else {
			e.U8(0)
		}
	case OpSnapOpen:
		e.U64(rep.snapID)
		e.U64(rep.lsn)
	case OpHello:
		e.U32(uint32(rep.info.ShardID))
		e.U32(uint32(rep.info.Shards))
		e.U8(uint8(rep.info.Role))
		e.U64(rep.info.CommittedLSN)
		e.U64(rep.info.AppliedLSN)
	case OpShipPull:
		e.U64(rep.committed)
		e.U64(rep.floor)
		e.U32(uint32(len(rep.recs)))
		for _, r := range rep.recs {
			e.Message(kv.Message{Kind: r.Kind, Seq: r.Seq, Key: r.Key, Value: r.Value})
			if req.stamps {
				e.U64(uint64(r.CommitWallNs))
				e.U64(r.TraceID)
				e.U64(r.SpanID)
			}
		}
	case OpPromote:
		e.U64(rep.lsn)
	}
	return e.Buf
}

// decodeReply parses the reply payload to req (the client side of
// encodeReply). A failure status decodes to its status and message; mapping
// it to an error is the caller's (statusSentinels).
func decodeReply(req request, buf []byte) (reply, error) {
	d := &kv.Dec{Buf: buf}
	rep := reply{status: Status(d.U8())}
	switch rep.status {
	case StatusOK:
	case StatusNotFound:
		return rep, nil
	default:
		if _, failed := statusSentinels[rep.status]; !failed {
			return rep, fmt.Errorf("server: unknown reply status %d", uint8(rep.status))
		}
		rep.msg = string(d.Bytes())
		if d.Err != nil {
			return rep, fmt.Errorf("server: malformed %v reply: %w", rep.status, d.Err)
		}
		return rep, nil
	}
	n := 0
	switch req.op {
	case OpGet, OpSnapGet, OpStats:
		rep.value = d.Bytes()
	case OpScan, OpSnapScan:
		if n = int(d.U32()); d.Err == nil && n <= req.limit {
			rep.entries = make([]kv.Entry, 0, n)
			for i := 0; i < n; i++ {
				rep.entries = append(rep.entries, d.Entry())
			}
		}
	case OpDelete:
		rep.accepted = d.U8() != 0
	case OpSnapOpen:
		rep.snapID, rep.lsn = d.U64(), d.U64()
	case OpHello:
		rep.info.ShardID = int(d.U32())
		rep.info.Shards = int(d.U32())
		rep.info.Role = Role(d.U8())
		rep.info.CommittedLSN = d.U64()
		rep.info.AppliedLSN = d.U64()
	case OpShipPull:
		rep.committed, rep.floor = d.U64(), d.U64()
		if n = int(d.U32()); d.Err == nil && n <= req.limit {
			rep.recs = make([]engine.ShipRecord, 0, n)
			for i := 0; i < n; i++ {
				m := d.Message()
				r := engine.ShipRecord{Record: wal.Record{Kind: m.Kind, Seq: m.Seq, Key: m.Key, Value: m.Value}}
				if req.stamps {
					r.CommitWallNs = int64(d.U64())
					r.TraceID, r.SpanID = d.U64(), d.U64()
				}
				rep.recs = append(rep.recs, r)
			}
		}
	case OpPromote:
		rep.lsn = d.U64()
	}
	if d.Err != nil {
		return rep, fmt.Errorf("server: malformed %v reply: %w", req.op, d.Err)
	}
	if n > req.limit {
		return rep, fmt.Errorf("server: malformed %v reply (n=%d)", req.op, n)
	}
	return rep, nil
}

// Log shipping: the primary half of WAL-shipping replication.
//
// A shipping-enabled engine keeps a bounded in-memory ring of its durable
// WAL records — fed by the log's commit hook, so a record enters the ring at
// the exact moment it becomes crash-safe (group commit, or a checkpoint that
// covers it via the journal). A replica tails the ring through ShipSince,
// applies the records through its own durable engine in order, and is then a
// byte-equivalent warm standby: promote = seal its log tail and serve.
//
// The ring is bounded (ShipCap records): a replica that falls behind the
// floor cannot catch up incrementally and gets ErrShipGap — the signal to
// re-bootstrap from a fresh image. Committed-prefix semantics carry over
// cluster-wide: only durable records are ever shipped, so a replica's state
// is always a prefix of the primary's durable history.
package engine

import (
	"errors"
	"sync"
	"time"

	"iomodels/internal/wal"
)

// ErrShippingOff is returned by shipping entry points when EnableShipping
// has not run on this engine.
var ErrShippingOff = errors.New("engine: log shipping not enabled")

// ErrShipGap is returned by ShipSince when the requested position has been
// trimmed from the ship ring: the subscriber is too far behind to catch up
// incrementally and must re-bootstrap.
var ErrShipGap = errors.New("engine: ship position trimmed from the ring (replica too far behind; re-bootstrap)")

// DefaultShipCap bounds the ship ring when EnableShipping is given 0.
const DefaultShipCap = 1 << 16

// ShipRecord is one durable record as the ship ring holds it: the WAL
// record plus the wall-clock instant it became durable on this node.
// Replicas subtract CommitWallNs from their own clock to measure
// replication lag in seconds (the positional lag is the LSN delta). The
// stamp is wall time, not virtual time: lag spans two processes with
// independent virtual clocks, and the wall clock is the only timeline they
// share.
type ShipRecord struct {
	wal.Record
	CommitWallNs int64
}

// shipBuffer is the ring of durable records awaiting shipment. recs grows
// geometrically while the ring fills; once it holds cap records it is never
// reallocated again — a new record overwrites the oldest in place and head
// advances. The ring therefore holds at most cap ShipRecords plus the
// payload slabs those records point into (see wal.Log.SetOnCommit: payload
// bytes are immutable and owned by the receiver, so the ring keeps them by
// reference and a slab is collectable once every record in it is trimmed).
type shipBuffer struct {
	mu        sync.Mutex
	cap       int
	recs      []ShipRecord // seq-ascending from head, wrapping at len(recs)
	head      int          // index of the oldest record; 0 until the ring is full
	floor     uint64       // records with Seq > floor are available
	committed uint64       // highest durable (shippable) LSN seen
}

// EnableShipping attaches the ship ring to a durable engine. capRecords
// bounds the ring (0 selects DefaultShipCap). Call it before the first
// mutation (right after EnableDurability, or after Recover): records already
// retired into a checkpoint journal are not shippable, so a later enable
// starts the stream at the current checkpoint LSN and a from-zero subscriber
// would see ErrShipGap.
func (e *Engine) EnableShipping(capRecords int) error {
	if e.dur == nil {
		return errNotEnabled
	}
	if capRecords <= 0 {
		capRecords = DefaultShipCap
	}
	d := e.dur
	d.mu.Lock()
	defer d.mu.Unlock()
	if e.ship != nil {
		return errors.New("engine: shipping already enabled")
	}
	s := &shipBuffer{cap: capRecords, floor: d.lastLSN, committed: d.lastLSN}
	// Backfill what the log still holds on disk (committed records since the
	// last checkpoint), then let the live commit hook take over. Backfilled
	// records are stamped with the enable instant — their true commit time
	// is unknowable (possibly a prior process lifetime), and "now" errs
	// toward under-reporting lag rather than inventing stale clock readings.
	now := time.Now().UnixNano()
	//lint:allowblock one-time enable path: the backfill must complete under d.mu so no commit can slip between the tail scan and the OnCommit hook installation (a record missed there is a permanent ship gap)
	d.log.TailFrom(d.lastLSN, func(r wal.Record) bool {
		s.append(r, now)
		return true
	})
	// The hook's contract (wal.Log.SetOnCommit): recs is the log's own tail,
	// valid only during the call — append copies each Record out of it — while
	// the payload bytes are the ring's to keep by reference.
	d.log.SetOnCommit(func(recs []wal.Record) {
		now := time.Now().UnixNano()
		s.mu.Lock()
		for _, r := range recs {
			s.append(r, now)
		}
		s.mu.Unlock()
	})
	e.ship = s
	return nil
}

// append adds one durable record stamped with its commit wall time: O(1),
// and allocation-free once the ring is full — the oldest record is
// overwritten and its Seq becomes the floor. Callers hold s.mu except during
// EnableShipping's backfill, which runs before the buffer is published.
func (s *shipBuffer) append(r wal.Record, wallNs int64) {
	if r.Seq > s.committed {
		s.committed = r.Seq
	}
	rec := ShipRecord{Record: r, CommitWallNs: wallNs}
	if len(s.recs) == s.cap {
		s.floor = s.recs[s.head].Seq
		s.recs[s.head] = rec
		if s.head++; s.head == s.cap {
			s.head = 0
		}
		return
	}
	if len(s.recs) == cap(s.recs) {
		// Grow by doubling, but never past cap: the bound is the contract.
		grown := make([]ShipRecord, len(s.recs), min(max(2*len(s.recs), 64), s.cap))
		copy(grown, s.recs)
		s.recs = grown
	}
	s.recs = append(s.recs, rec)
}

// index returns where in recs the i-th oldest record lives.
func (s *shipBuffer) index(i int) int {
	if i += s.head; i >= len(s.recs) {
		i -= len(s.recs)
	}
	return i
}

// ShipSince returns up to max durable records with Seq > after, in append
// order, plus the stream's current status. A subscriber polls with its
// applied position: an empty batch means it is caught up to CommittedLSN.
// ErrShipGap means the position has been trimmed — the subscriber must
// re-bootstrap from a fresh image.
func (e *Engine) ShipSince(after uint64, max int) ([]ShipRecord, ShipStatus, error) {
	s := e.ship
	if s == nil {
		return nil, ShipStatus{}, ErrShippingOff
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ShipStatus{CommittedLSN: s.committed, FloorLSN: s.floor}
	if after < s.floor {
		return nil, st, ErrShipGap
	}
	// Binary search, in age order, for the first record past `after`.
	lo, hi := 0, len(s.recs)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.recs[s.index(mid)].Seq <= after {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	n := len(s.recs) - lo
	if max > 0 && n > max {
		n = max
	}
	if n == 0 {
		return nil, st, nil
	}
	// The run may straddle the wrap: copy up to the end of the array, then
	// the rest from its start.
	out := make([]ShipRecord, n)
	copied := copy(out, s.recs[s.index(lo):])
	copy(out[copied:], s.recs)
	return out, st, nil
}

// ShipStatus is the stream position a ShipSince reply carries.
type ShipStatus struct {
	// CommittedLSN is the highest durable (shippable) LSN.
	CommittedLSN uint64
	// FloorLSN is the trim floor: records with Seq > FloorLSN are available.
	FloorLSN uint64
}

// ShipStats is the shipping subsystem's counter snapshot.
type ShipStats struct {
	Enabled      bool
	CommittedLSN uint64
	FloorLSN     uint64
	Buffered     int // records currently in the ring
}

// ShipStats returns a snapshot (zero value when shipping is off).
func (e *Engine) ShipStats() ShipStats {
	s := e.ship
	if s == nil {
		return ShipStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return ShipStats{
		Enabled:      true,
		CommittedLSN: s.committed,
		FloorLSN:     s.floor,
		Buffered:     len(s.recs),
	}
}

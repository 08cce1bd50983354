// Cluster roles and the replication surface: shard hello, WAL-ship pulls,
// and promotion. A server is Solo (the single-node default), a Primary
// (accepts writes, feeds the ship stream), or a Replica (refuses writes with
// StatusNotPrimary and applies the primary's shipped records through its own
// durable write path, so it is itself crash-safe).
//
// Sync-ship: with Config.SyncShip on, a primary only acknowledges a write
// after a replica's ShipPull has acknowledged an LSN at or past it — the
// pull's `after` position doubles as the ack. A write that times out waiting
// is answered with StatusErr: it is durable locally but unacknowledged by
// the replica, so a failover may lose it — exactly the contract the client
// sees.
package server

import (
	"errors"
	"fmt"
	"time"

	"iomodels/internal/engine"
	"iomodels/internal/kv"
	"iomodels/internal/obs"
	"iomodels/internal/wal"
)

// Role is a node's cluster role.
type Role uint8

// Roles. RoleSolo is the zero value: a single-node server outside any
// cluster (promotion is refused; writes are accepted).
const (
	RoleSolo Role = iota
	RolePrimary
	RoleReplica
)

// roleNames names the roles (also /metrics' one-hot kvserve_role labels).
var roleNames = [...]string{RoleSolo: "solo", RolePrimary: "primary", RoleReplica: "replica"}

func (r Role) String() string { return nameOf(roleNames[:], "role", uint8(r)) }

// Role returns the node's current role.
func (s *Server) Role() Role { return Role(s.role.Load()) }

func (s *Server) setRole(r Role) { s.role.Store(int32(r)) }

// ackShip records a subscriber's acknowledged position and wakes sync-ship
// waiters. Positions only advance.
func (s *Server) ackShip(lsn uint64) {
	s.shipMu.Lock()
	if lsn > s.shipAcked {
		s.shipAcked = lsn
		close(s.shipWake)
		s.shipWake = make(chan struct{})
	}
	s.shipMu.Unlock()
}

// shipAckedLSN reads the highest acknowledged position.
func (s *Server) shipAckedLSN() uint64 {
	s.shipMu.Lock()
	defer s.shipMu.Unlock()
	return s.shipAcked
}

// waitShipAck blocks until a subscriber acknowledges lsn or timeout passes.
func (s *Server) waitShipAck(lsn uint64, timeout time.Duration) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		s.shipMu.Lock()
		acked, wake := s.shipAcked, s.shipWake
		s.shipMu.Unlock()
		if acked >= lsn {
			return true
		}
		select {
		case <-wake:
		case <-timer.C:
			return false
		}
	}
}

// serveHello answers the shard-identity probe: who this node is and where
// its replication stream stands. The router validates topology with it; the
// failover path uses it as the liveness + role check.
func (s *Server) serveHello() reply {
	committed := s.backend.Eng.LogSeq()
	if ss := s.backend.Eng.ShipStats(); ss.Enabled {
		committed = ss.CommittedLSN
	}
	return reply{status: StatusOK, info: NodeInfo{
		ShardID: s.cfg.ShardID, Shards: s.cfg.Shards, Role: s.Role(),
		CommittedLSN: committed, AppliedLSN: s.shipAppliedLSN.Load(),
	}}
}

// serveShipPull serves one ship-stream pull: records past req.lsn, capped by
// req.limit and by the frame budget (shipFit; the replica resumes where the
// batch ends). The pull position acknowledges everything before it. A pull
// carrying the stamped-ship extension gets each record suffixed with its
// commit wall time and trace identity — the replica's lag and
// trace-continuation inputs; a legacy pull gets the original encoding byte
// for byte.
func (s *Server) serveShipPull(req request) reply {
	recs, st, err := s.backend.Eng.ShipSince(req.lsn, req.limit)
	switch {
	case errors.Is(err, engine.ErrShipGap):
		return failure(StatusShipGap, err.Error())
	case err != nil:
		return failure(StatusErr, err.Error())
	}
	s.ackShip(req.lsn)
	s.metrics.shipPulls.Add(1)
	recs = recs[:shipFit(recs, req.stamps)]
	s.metrics.shipRecords.Add(int64(len(recs)))
	return reply{status: StatusOK, committed: st.CommittedLSN, floor: st.FloorLSN, recs: recs}
}

// servePromote flips a replica to primary. The OnPromote hook runs first —
// it stops the shipper and seals the log tail (a WAL sync), returning the
// LSN the node will serve from — and only then does the role flip, so no
// shipped apply can race a client write. Idempotent on a primary; refused on
// a solo node.
func (s *Server) servePromote() reply {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	switch s.Role() {
	case RolePrimary:
		return reply{status: StatusOK, lsn: s.backend.Eng.LogSeq()}
	case RoleSolo:
		return failure(StatusErr, "promote: node is not a cluster member")
	}
	lsn := s.shipAppliedLSN.Load()
	if s.cfg.OnPromote != nil {
		var err error
		//lint:allowblock promoteMu must be held across the hook: it stops the shipper and seals the log tail, and a second concurrent promote (or a role read racing the flip) would break the no-shipped-apply-after-flip guarantee
		lsn, err = s.cfg.OnPromote()
		if err != nil {
			return failure(StatusErr, fmt.Sprintf("promote: %v", err))
		}
	}
	s.setRole(RolePrimary)
	s.metrics.promotions.Add(1)
	return reply{status: StatusOK, lsn: lsn}
}

// ApplyShipped applies one pulled batch of primary records through the
// server's write path — trees + this node's own WAL, one group commit — and
// records the primary-LSN high-water mark. Replica-only: the caller is the
// shipper goroutine, and the role gate guarantees it never runs concurrently
// with the writer loop's own applyWrites (client writes are refused with
// StatusNotPrimary while the node is a replica, and promotion stops the
// shipper before the role flips).
//
// Shipped streams contain only Put and Tombstone records: the primary's
// durability layer materializes upserts into Puts before logging (see
// Durable.Upsert), so replay — local or remote — is a pure fold.
func (s *Server) ApplyShipped(recs []wal.Record) error {
	if len(recs) == 0 {
		return nil
	}
	if s.Role() != RoleReplica {
		return errors.New("server: ApplyShipped on a non-replica")
	}
	batch := make([]writeReq, len(recs))
	done := make(chan writeResult, len(recs)) // one reply per record
	for i, r := range recs {
		// A stamped record's trace identity continues the primary's trace on
		// this node: the replica's commit span links back to the primary-side
		// span that logged the record.
		var tc obs.TraceContext
		if r.TraceID != 0 {
			tc = obs.TraceContext{TraceID: r.TraceID, SpanID: r.SpanID, Sampled: true}
		}
		switch r.Kind {
		case kv.Put:
			batch[i] = writeReq{op: OpPut, key: r.Key, value: r.Value, tc: tc, done: done}
		case kv.Tombstone:
			batch[i] = writeReq{op: OpDelete, key: r.Key, tc: tc, done: done}
		default:
			return fmt.Errorf("server: shipped record %d has unexpected kind %d", r.Seq, r.Kind)
		}
	}
	s.applyWrites(batch)
	var firstErr error
	for range batch {
		if res := <-done; res.err != nil && firstErr == nil {
			firstErr = res.err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	s.shipAppliedLSN.Store(recs[len(recs)-1].Seq)
	return nil
}

// ShipAppliedLSN is the highest shipped primary LSN this node has applied
// (0 unless it is or was a replica).
func (s *Server) ShipAppliedLSN() uint64 { return s.shipAppliedLSN.Load() }

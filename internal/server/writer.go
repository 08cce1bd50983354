// The write path: all mutations from all connections funnel through one
// writer goroutine (the engine's single-writer rule made structural), which
// drains the queue in batches and commits each batch with ONE WAL flush —
// group commit across connections. Each drain is applied under the state
// lock with engine.ApplyBatchNoSync; the lock is then dropped and the WAL
// flushed once with engine.CommitPending. Durability is batch-scoped: a reply
// is only sent after the batch's WAL commit, so an acknowledged write is on
// the log.
//
// The queue is bounded; a full queue refuses the write with StatusBusy
// (admission control, same contract as the read scheduler).
package server

import (
	"errors"
	"time"

	"iomodels/internal/engine"
	"iomodels/internal/kv"
	"iomodels/internal/obs"
	"iomodels/internal/sim"
	"iomodels/internal/wal"
)

// errSyncShipTimeout is the batch-scoped sync-ship failure: locally durable,
// remotely unacknowledged.
var errSyncShipTimeout = errors.New("sync-ship: no replica acknowledged the write in time (durable locally, replication unconfirmed)")

// writeResult is the writer's reply to one request.
type writeResult struct {
	accepted bool     // Delete's report (true for Put/Upsert)
	end      sim.Time // the commit's virtual end (the owner's cursor after it)
	err      error
}

// writeReq is one queued mutation and the channel its reply goes to. The
// mutation's trace ids are the request's trace context (zero when untraced):
// the server span that enqueued it, or the client's carried context when no
// tracer is attached. They link the group-commit span and stamp the
// mutation's WAL record for the ship stream. done must never block the
// writer: a connection owns one with room for its single outstanding write.
type writeReq struct {
	engine.Mutation
	done chan<- writeResult
}

// writerLoop drains the write queue: each iteration takes everything
// immediately available (up to WriteBatch), applies it under the state lock,
// commits the WAL once, and replies to every waiter. Runs until the queue is
// closed and drained.
func (s *Server) writerLoop() {
	defer close(s.writerDone)
	var muts []engine.Mutation
	var dones []chan<- writeResult
	for {
		req, ok := <-s.writeCh
		if !ok {
			return
		}
		muts, dones = append(muts[:0], req.Mutation), append(dones[:0], req.done)
	fill:
		for len(muts) < s.cfg.WriteBatch {
			select {
			case req, ok := <-s.writeCh:
				if !ok {
					break fill
				}
				muts, dones = append(muts, req.Mutation), append(dones, req.done)
			default:
				break fill
			}
		}
		end, err := s.applyWrites(muts)
		for i, done := range dones {
			done <- writeResult{accepted: muts[i].Accepted, end: end, err: err}
		}
	}
}

// applyWrites runs one batch and returns the commit's virtual end and its
// error; each mutation's Accepted holds its own report. The state lock
// covers only the structural applies (tree mutations + WAL appends); the
// group-commit flush runs after the lock is dropped, so snapshot and point
// readers never wait out the log device behind a committing batch. Readers
// may therefore observe applied-but-not-yet-flushed values — the same
// read-your-writes view the engine's own sessions have always had — while
// the waiting writers are only acknowledged after the flush (see DESIGN.md
// §9). applyWrites has one caller at a time: the writer goroutine, or on a
// replica the shipper (ApplyShipped).
func (s *Server) applyWrites(muts []engine.Mutation) (sim.Time, error) {
	start := s.backend.Clock.Now()
	// One span per group commit, on the owner client: the trees' mutation
	// path, the WAL appends, the group-commit flush, and any checkpoint all
	// run through the owner (which only this goroutine drives).
	owner := s.backend.Eng.Owner()
	// Link the group-commit span under every traced request in the batch:
	// the first carried context parents it, the rest attach as extra links —
	// one flush serves N traced writes. A mutation carries only the context
	// of a recorded span (serveWrite), so the link is flagged sampled and
	// bypasses sampling.
	firstTraced := -1
	for i := range muts {
		if muts[i].TraceID != 0 {
			firstTraced = i
			break
		}
	}
	var sp *obs.Span
	if firstTraced >= 0 {
		first := &muts[firstTraced]
		sp = owner.StartSpanLinked("commit", kv.TraceContext{TraceID: first.TraceID, SpanID: first.SpanID, Flags: kv.TraceFlagSampled})
		for _, m := range muts[firstTraced+1:] {
			sp.AddLink(m.TraceID, m.SpanID)
		}
	} else {
		sp = owner.StartSpan("commit")
	}
	var err error
	if d, ok := s.backend.Writer.(*engine.Durable); ok {
		for i := range muts {
			muts[i].Dict = d
		}
		s.stateMu.Lock()
		//lint:allowblock structural applies run under the write exclusion by design; the expensive part — the group-commit flush — already runs after stateMu is dropped (CommitPending below)
		err = s.backend.Eng.ApplyBatchNoSync(muts)
		target := s.backend.Eng.LogSeq() // the batch's last appended LSN
		s.stateMu.Unlock()
		if err == nil {
			err = s.backend.Eng.CommitPending()
			if errors.Is(err, wal.ErrLogFull) {
				// The pending group no longer fits: checkpointing makes every
				// applied record durable instead, but it restructures engine
				// state (memtable flushes, page write-backs), so it needs the
				// write exclusion back.
				s.stateMu.Lock()
				//lint:allowblock a checkpoint restructures engine state (memtable flushes, page write-backs) and therefore needs the write exclusion back; rare by construction (log-full only)
				err = s.backend.Eng.Checkpoint()
				s.stateMu.Unlock()
			}
		}
		if err == nil && s.cfg.SyncShip && s.Role() == RolePrimary {
			// Semi-synchronous replication: hold the acks until a replica's
			// pull acknowledges the batch's last LSN. A timeout, or Close,
			// degrades that batch to an error reply — the writes are durable
			// locally but a failover may lose them, and the client must
			// know. The wall time spent at the gate is the sync-ship latency
			// tax; the histogram is what E24 and kvtop read.
			gateStart := time.Now()
			acked := s.shipAcked.Wait(target, s.cfg.SyncShipTimeout, s.closing)
			s.metrics.gateWait.Observe(int64(time.Since(gateStart)))
			if !acked {
				s.metrics.shipAckTimeouts.Add(1)
				err = errSyncShipTimeout
			}
		}
	} else {
		s.stateMu.Lock()
		for i := range muts {
			muts[i].ApplyTo(s.backend.Writer)
		}
		s.stateMu.Unlock()
	}
	owner.FinishSpan(sp)
	s.metrics.writeBatches.Add(1)
	s.metrics.writeOps.Add(int64(len(muts)))
	s.metrics.writeSteps.Add(int64(s.backend.Clock.Now() - start))
	return owner.Now(), err
}

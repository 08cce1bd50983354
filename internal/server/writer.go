// The write path: all mutations from all connections funnel through one
// writer goroutine (the engine's single-writer rule made structural), which
// drains the queue in batches and commits each batch with ONE WAL flush —
// group commit across connections, via engine.ApplyBatch. Durability is
// batch-scoped: a reply is only sent after the batch's WAL commit, so an
// acknowledged write is on the log.
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

// writeReq is one queued mutation.
type writeReq struct {
	op    Op // OpPut, OpDelete, OpUpsert
	key   []byte
	value []byte
	delta int64
	// tc is the request's trace context (zero when untraced): the server
	// span that enqueued the mutation, or the client's carried context when
	// no tracer is attached. It links the group-commit span and stamps the
	// mutation's WAL record for the ship stream.
	tc obs.TraceContext
	// done receives the writer loop's one reply (nil for a shipped record,
	// whose caller reads applyWrites' results). It must never block the
	// writer: a connection owns one with room for its single outstanding
	// write.
	done chan<- writeResult
}

// writerLoop drains the write queue: each iteration takes everything
// immediately available (up to WriteBatch), applies it under the state lock,
// commits the WAL once, and replies to every waiter. Runs until the queue is
// closed and drained.
func (s *Server) writerLoop() {
	defer close(s.writerDone)
	for {
		req, ok := <-s.writeCh
		if !ok {
			return
		}
		batch := append(s.writeScratch[:0], req)
	fill:
		for len(batch) < s.cfg.WriteBatch {
			select {
			case req, ok := <-s.writeCh:
				if !ok {
					break fill
				}
				batch = append(batch, req)
			default:
				break fill
			}
		}
		s.writeScratch = batch
		for i, res := range s.applyWrites(batch) {
			batch[i].done <- res
		}
	}
}

// applyWrites runs one batch and returns one result per request, in batch
// order (valid until the next call). The state lock covers only the
// structural applies (tree mutations + WAL appends); the group-commit flush
// runs after the lock is dropped, so snapshot and point readers never wait
// out the log device behind a committing batch. Readers may therefore
// observe applied-but-not-yet-flushed values — the same read-your-writes
// view the engine's own sessions have always had — while the waiting
// writers are only acknowledged after the flush (see DESIGN.md §9).
func (s *Server) applyWrites(batch []writeReq) []writeResult {
	start := s.backend.Clock.Now()
	// One span per group commit, on the owner client: the trees' mutation
	// path, the WAL appends, the group-commit flush, and any checkpoint all
	// run through the owner (which only this goroutine drives).
	owner := s.backend.Eng.Owner()
	// Link the group-commit span under every traced request in the batch:
	// the first carried context parents it (bypassing sampling), the rest
	// attach as extra links — one flush serves N traced writes.
	firstTraced := -1
	for i := range batch {
		if batch[i].tc.TraceID != 0 {
			firstTraced = i
			break
		}
	}
	var sp *obs.Span
	if firstTraced >= 0 {
		sp = owner.StartSpanLinked("commit", batch[firstTraced].tc)
		for _, req := range batch[firstTraced+1:] {
			if req.tc.TraceID != 0 {
				sp.AddLink(req.tc.TraceID, req.tc.SpanID)
			}
		}
	} else {
		sp = owner.StartSpan("commit")
	}
	// The scratch slices need no lock: applyWrites has one caller at a time
	// (the writer goroutine, or on a replica the shipper — ApplyShipped).
	results := s.resultScratch[:0]
	if d, ok := s.backend.Writer.(*engine.Durable); ok {
		muts := s.mutScratch[:0]
		for _, req := range batch {
			muts = append(muts, toMutation(d, req))
		}
		s.mutScratch = muts
		s.stateMu.Lock()
		//lint:allowblock structural applies run under the write exclusion by design; the expensive part — the group-commit flush — already runs after stateMu is dropped (CommitPending below)
		err := s.backend.Eng.ApplyBatchNoSync(muts)
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
		for i := range muts {
			results = append(results, writeResult{accepted: muts[i].Accepted, err: err})
		}
	} else {
		s.stateMu.Lock()
		for _, req := range batch {
			results = append(results, s.applyPlain(req))
		}
		s.stateMu.Unlock()
	}
	s.resultScratch = results
	owner.FinishSpan(sp)
	s.metrics.writeBatches.Add(1)
	s.metrics.writeOps.Add(int64(len(batch)))
	s.metrics.writeSteps.Add(int64(s.backend.Clock.Now() - start))
	end := owner.Now()
	for i := range results {
		results[i].end = end
	}
	return results
}

// toMutation converts a request into the engine's group-commit form,
// carrying the request's trace identity onto the mutation so the WAL record
// (and through it the ship stream) is stamped.
func toMutation(d *engine.Durable, req writeReq) engine.Mutation {
	m := engine.Mutation{Dict: d, TraceID: req.tc.TraceID, SpanID: req.tc.SpanID}
	switch req.op {
	case OpPut:
		m.Kind, m.Key, m.Value = kv.Put, req.key, req.value
	case OpDelete:
		m.Kind, m.Key = kv.Tombstone, req.key
	case OpUpsert:
		m.Kind, m.Key, m.Delta = kv.Upsert, req.key, req.delta
	default:
		panic("server: non-write op in write queue")
	}
	return m
}

// applyPlain applies one mutation to a non-durable backend.
func (s *Server) applyPlain(req writeReq) writeResult {
	w := s.backend.Writer
	switch req.op {
	case OpPut:
		w.Put(req.key, req.value)
		return writeResult{accepted: true}
	case OpDelete:
		return writeResult{accepted: w.Delete(req.key)}
	case OpUpsert:
		if up, ok := w.(engine.Upserter); ok {
			up.Upsert(req.key, req.delta)
			return writeResult{accepted: true}
		}
		// Trees without an upsert path get read-modify-write semantics.
		old, ok := w.Get(req.key)
		v, _ := kv.Message{Kind: kv.Upsert, Value: kv.UpsertDelta(req.delta)}.Apply(old, ok)
		w.Put(req.key, v)
		return writeResult{accepted: true}
	default:
		panic("server: non-write op in write queue")
	}
}

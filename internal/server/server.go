// Package server is a concurrent KV service over the repo's storage engine
// and trees: a length-prefixed binary protocol on TCP, a PDAM-aware read
// scheduler that keeps a device-parallelism-sized set of reads in flight
// (scheduler.go), a single writer that group-commits mutations across
// connections through the PR-2 WAL (writer.go), admission control that
// sheds load with typed busy replies, and a metrics layer (metrics.go).
//
// Virtual vs real time: the engine's devices are timing models, so the
// server runs them on an engine.SharedClock — handler goroutines are real,
// but every IO is stamped in virtual time, and throughput in device time
// steps is measured exactly as in the paper's Lemma 13 experiment. Latency
// histograms, by contrast, are wall-clock: they describe the service as a
// network process.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"iomodels/internal/engine"
	"iomodels/internal/kv"
	"iomodels/internal/obs"
	"iomodels/internal/storage"
)

// Config tunes the server. Zero values select defaults.
type Config struct {
	// Addr is the TCP listen address for ListenAndServe ("127.0.0.1:0"
	// picks a free port).
	Addr string
	// BatchIOs is the read scheduler's slot count per lane: how many reads
	// of one lane run at once. 0 asks the device's storage.Topology: the
	// per-queue target when the lanes also come from the topology, else its
	// realizable Parallelism (the PDAM's P). 1 gives the DAM-style
	// one-at-a-time scheduler (the E20 baseline).
	BatchIOs int
	// ReadLanes is the number of independent read lanes, each with its own
	// BatchIOs slots; requests are assigned lanes by key hash. 0 asks the
	// device's storage.Topology for its queue count — 1, the classic global
	// scheduler, on devices without queue structure. On a multi-queue
	// device, per-queue lanes keep each lane's reads in flight at what one
	// queue can serve instead of one global pool overcommitting the device.
	ReadLanes int
	// ReadQueue bounds queued+running read requests; beyond it reads are
	// refused with StatusBusy. Default 4×BatchIOs.
	ReadQueue int
	// WriteQueue bounds queued write requests (default 1024); WriteBatch
	// bounds mutations per group commit (default 64).
	WriteQueue int
	WriteBatch int
	// Tracer, if set, is attached to the engine: reads and commits open
	// spans, the pager/WAL/checkpoint layers annotate them, and /stats and
	// /metrics expose the per-layer breakdown and live model residuals.
	Tracer *obs.Tracer

	// ShardID/Shards place this node in a cluster (defaults 0 of 1). The
	// Hello op reports them; the router refuses a node whose identity does
	// not match its topology.
	ShardID int
	Shards  int
	// Role is the node's initial cluster role (RoleSolo outside a cluster).
	// A replica refuses client writes with StatusNotPrimary until promoted.
	Role Role
	// OnPromote, if set, runs inside a replica's Promote handling before the
	// role flips: stop the shipper, seal the log tail, return the LSN the
	// node will serve from. Errors refuse the promotion.
	OnPromote func() (uint64, error)
	// SyncShip makes a primary acknowledge a write only after a replica's
	// ShipPull has acknowledged an LSN at or past it (semi-synchronous
	// replication: an acked write survives failover). Writes that wait
	// longer than SyncShipTimeout (default 2s) are answered with StatusErr —
	// durable locally, unacknowledged remotely.
	SyncShip        bool
	SyncShipTimeout time.Duration

	// SlowOpThreshold, when > 0, makes every request whose wall-clock
	// service time reaches it emit one structured (JSON) log line on
	// SlowOpLog: the op, its latency, its trace identity, and — when a
	// tracer is attached — the request span's per-layer breakdown (device
	// IOs, bytes, and virtual IO time per stack layer, pager hits/misses,
	// group-commit wait). SlowOpLog defaults to os.Stderr.
	SlowOpThreshold time.Duration
	SlowOpLog       io.Writer
}

func (c Config) withDefaults(dev storage.Device) Config {
	topo := storage.TopologyOf(dev)
	if c.ReadLanes == 0 {
		c.ReadLanes = topo.Queues
		if c.BatchIOs == 0 {
			c.BatchIOs = topo.PerQueue
		}
	}
	if c.ReadLanes < 1 {
		c.ReadLanes = 1
	}
	if c.BatchIOs == 0 {
		c.BatchIOs = topo.Parallelism
	}
	if c.BatchIOs < 1 {
		c.BatchIOs = 1
	}
	if c.ReadQueue == 0 {
		c.ReadQueue = 4 * c.BatchIOs * c.ReadLanes
	}
	if c.WriteQueue == 0 {
		c.WriteQueue = 1024
	}
	if c.WriteBatch == 0 {
		c.WriteBatch = 64
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.SyncShipTimeout == 0 {
		c.SyncShipTimeout = 2 * time.Second
	}
	if c.SlowOpThreshold > 0 && c.SlowOpLog == nil {
		c.SlowOpLog = os.Stderr
	}
	return c
}

// Backend is what the server serves: an engine already adopted onto Clock,
// a session factory for the read path, and the write target. For a durable
// backend, Writer is the *engine.Durable wrapper and writes group-commit;
// otherwise they apply directly.
type Backend struct {
	Eng   *engine.Engine
	Clock *engine.SharedClock
	// NewSession returns a per-connection read session (tree.Session(c)).
	NewSession func(*engine.Client) engine.Dictionary
	// Writer is the mutation target (the Durable wrapper when durability
	// is on, else the tree itself).
	Writer engine.Dictionary
}

// Server is one serving instance.
type Server struct {
	cfg     Config
	backend Backend

	readSched *readScheduler
	metrics   *metrics

	writeCh      chan writeReq
	writerDone   chan struct{}
	writeScratch []writeReq // writer-goroutine-local batch buffer
	// applyWrites' per-batch scratch, reused across batches.
	mutScratch    []engine.Mutation
	resultScratch []writeResult

	// stateMu orders tree reads against tree mutations: sessions take the
	// read side per operation, the writer takes the write side per batch.
	// (The pager is internally synchronized; this lock is for the trees'
	// single-writer rule.)
	stateMu sync.RWMutex //lint:lockrank 10

	// Cluster state (cluster.go): the node's role, the sync-ship ack gate,
	// and the replica's applied high-water mark.
	role           atomic.Int32
	promoteMu      sync.Mutex    //lint:lockrank 20
	shipMu         sync.Mutex    //lint:lockrank 30
	shipAcked      uint64        // highest LSN a subscriber has acknowledged
	shipWake       chan struct{} // closed+replaced when shipAcked advances
	shipAppliedLSN atomic.Uint64 // replica: highest shipped primary LSN applied

	// lag is the replication-lag estimator the cluster shipper feeds via
	// NoteShipLag (one sample per ship pull, on a replica).
	lag *obs.LagEstimator

	listenAddr atomic.Value // string: bound listen address, set by Serve

	mu       sync.Mutex //lint:lockrank 50
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup
}

// New creates a server over backend. It validates the backend, applies
// config defaults (asking the device for its parallelism) and starts the
// writer goroutine; call ListenAndServe (or Serve) next.
func New(cfg Config, backend Backend) (*Server, error) {
	if backend.Eng == nil || backend.Clock == nil || backend.NewSession == nil || backend.Writer == nil {
		return nil, errors.New("server: incomplete backend")
	}
	cfg = cfg.withDefaults(backend.Eng.Device())
	if cfg.Tracer != nil {
		backend.Eng.SetTracer(cfg.Tracer)
	}
	s := &Server{
		cfg:        cfg,
		backend:    backend,
		readSched:  newReadScheduler(backend.Clock, cfg.ReadLanes, cfg.BatchIOs, cfg.ReadQueue),
		metrics:    newMetrics(),
		writeCh:    make(chan writeReq, cfg.WriteQueue),
		writerDone: make(chan struct{}),
		conns:      make(map[net.Conn]struct{}),
		shipWake:   make(chan struct{}),
		lag:        obs.NewLagEstimator(0),
	}
	s.setRole(cfg.Role)
	go s.writerLoop()
	return s, nil
}

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// ListenAndServe binds cfg.Addr and serves until Close. It returns once the
// listener is bound, serving in the background; the returned address has any
// ":0" port resolved.
func (s *Server) ListenAndServe() (net.Addr, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.Serve(ln)
	return ln.Addr(), nil
}

// Serve accepts connections from ln in the background until Close.
func (s *Server) Serve(ln net.Listener) {
	s.listenAddr.Store(ln.Addr().String())
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.acceptWG.Add(1)
	go func() {
		defer s.acceptWG.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			if !s.track(conn) {
				conn.Close()
				return
			}
			s.connWG.Add(1)
			go s.handleConn(conn)
		}
	}()
}

// track registers a live connection; false once the server is closing.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	s.metrics.conns.Add(1)
	s.metrics.connsTotal.Add(1)
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.metrics.conns.Add(-1)
}

// ListenAddr returns the bound listen address ("" before Serve). It is the
// node's identity on /stats and /metrics — the address kvtop keys its rows
// by.
func (s *Server) ListenAddr() string {
	if v := s.listenAddr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// NoteShipLag records one replication-lag observation: how far this node's
// applied position trails the primary's durable position, in seconds (from
// the commit wall-time stamped on shipped records) and LSNs. The cluster
// shipper calls it once per pull; /stats and /metrics expose the estimator.
func (s *Server) NoteShipLag(lagSeconds float64, lagLSNs int64) {
	s.lag.Observe(lagSeconds, lagLSNs)
}

// Close shuts the server down: stop accepting, sever connections, wait for
// handlers, then drain and stop the writer. Safe to call once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("server: already closed")
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.acceptWG.Wait()
	s.connWG.Wait()
	close(s.writeCh)
	<-s.writerDone
	return nil
}

// maxSnapsPerConn bounds the snapshots one connection may hold open: live
// snapshots pin version-chain memory engine-wide, so a leaky client must
// not grow it without bound.
const maxSnapsPerConn = 64

// maxScanLimit bounds one scan's entry count.
const maxScanLimit = 10000

// connState is one connection's serving state: its engine client, its read
// session, and the snapshots it holds open (ids are connection-local).
type connState struct {
	client   *engine.Client
	session  engine.Dictionary
	snaps    map[uint64]*engine.Snap
	nextSnap uint64
	// lastSpan is the span the most recent read/write on this connection
	// finished with (nil when sampled out or untraced); the slow-op log
	// reads its per-layer events after the fact.
	lastSpan *obs.Span
	// writeDone carries the writer's reply to this connection's one
	// outstanding write (made by the first write; empty again by the time
	// serveWrite returns).
	writeDone chan writeResult
}

// releaseAll retires every snapshot the connection still holds (the
// disconnect path; TestServerSnapshotReleasedOnDisconnect holds it to
// that, past the per-connection cap too).
func (cs *connState) releaseAll() {
	for id, sn := range cs.snaps {
		sn.Release()
		delete(cs.snaps, id)
	}
}

// handleConn serves one connection: its own engine client and read session
// (per-connection virtual timeline), one request at a time.
func (s *Server) handleConn(conn net.Conn) {
	defer s.connWG.Done()
	defer s.untrack(conn)
	defer conn.Close()

	client := s.backend.Eng.SharedClient(s.backend.Clock)
	s.stateMu.RLock()
	session := s.backend.NewSession(client)
	s.stateMu.RUnlock()
	cs := &connState{client: client, session: session, snaps: make(map[uint64]*engine.Snap)}
	defer cs.releaseAll()

	c := NewClient(conn) // reuse the framing helpers on the server side
	for {
		buf, err := readFrame(c.r, DefaultMaxFrame)
		if err != nil {
			if errors.Is(err, errFrameTooLarge) {
				s.metrics.protoErrs.Add(1)
			}
			return // disconnect (EOF, reset, oversized frame)
		}
		if err := writeFrame(c.w, s.serveRequest(cs, buf)); err != nil {
			return
		}
		if err := c.w.Flush(); err != nil {
			return
		}
	}
}

// serveRequest is the one request path: decode the payload, execute it,
// count the reply's status, encode it. A payload that does not decode is a
// protocol error, answered with StatusErr on a connection that stays open.
func (s *Server) serveRequest(cs *connState, buf []byte) []byte {
	req, err := decodeRequest(buf, maxScanLimit)
	var rep reply
	if err != nil {
		s.metrics.protoErrs.Add(1)
		rep = failure(StatusErr, err.Error())
	} else {
		s.metrics.inFlight.Add(1)
		start := time.Now()
		rep = s.serve(cs, req)
		wall := time.Since(start)
		s.metrics.ops[req.op].Observe(int64(wall))
		s.metrics.inFlight.Add(-1)
		if thr := s.cfg.SlowOpThreshold; thr > 0 && wall >= thr {
			s.logSlowOp(cs, req, wall)
		}
		cs.lastSpan = nil
	}
	s.metrics.replies[rep.status].Add(1)
	return encodeReply(req, rep)
}

// serve executes one decoded request.
func (s *Server) serve(cs *connState, req request) reply {
	switch req.op {
	case OpPing:
		return reply{status: StatusOK}
	case OpStats:
		js, err := json.Marshal(s.Snapshot())
		if err != nil {
			return failure(StatusErr, err.Error())
		}
		return reply{status: StatusOK, value: js}
	case OpGet, OpScan:
		return s.scheduledRead(cs, req, nil)
	case OpPut, OpDelete, OpUpsert:
		return s.serveWrite(cs, req)
	case OpSnapOpen:
		return s.serveSnapOpen(cs, req)
	case OpSnapGet, OpSnapScan:
		return s.serveSnapRead(cs, req)
	case OpSnapRelease:
		return s.serveSnapRelease(cs, req)
	case OpHello:
		return s.serveHello()
	case OpShipPull:
		return s.serveShipPull(req)
	case OpPromote:
		return s.servePromote()
	default:
		return failure(StatusErr, fmt.Sprintf("unhandled op %v", req.op))
	}
}

// obsTC converts a wire trace context into the tracer's mirror form.
func obsTC(tc kv.TraceContext) obs.TraceContext {
	return obs.TraceContext{TraceID: tc.TraceID, SpanID: tc.SpanID, Sampled: tc.Sampled()}
}

// slowOpLayer is one stack layer's share in a slow-op log line.
type slowOpLayer struct {
	Layer string  `json:"layer"`
	IOs   int64   `json:"ios"`
	Bytes int64   `json:"bytes"`
	IOUs  float64 `json:"io_us"` // virtual device time, µs
}

// slowOpLine is the slow-op structured log record: one JSON object per line
// on Config.SlowOpLog for every request at or past SlowOpThreshold.
type slowOpLine struct {
	Event       string        `json:"event"` // always "slow_op"
	Op          string        `json:"op"`
	WallUs      float64       `json:"wall_us"`
	ThresholdUs float64       `json:"threshold_us"`
	Role        string        `json:"role"`
	Shard       int           `json:"shard"`
	TraceID     string        `json:"trace_id,omitempty"` // hex
	SpanWire    string        `json:"span,omitempty"`     // hex wire id
	VirtualUs   float64       `json:"virtual_us,omitempty"`
	Layers      []slowOpLayer `json:"layers,omitempty"`
	PagerHits   int64         `json:"pager_hits,omitempty"`
	PagerMisses int64         `json:"pager_misses,omitempty"`
	WALCommitUs float64       `json:"wal_commit_us,omitempty"`
}

// logSlowOp emits one structured line for a slow request. The span (when
// the op was traced) supplies the per-layer breakdown; an untraced slow op
// still logs its identity and latency. The line is built first and written
// with a single Write so concurrent handlers' lines do not interleave.
func (s *Server) logSlowOp(cs *connState, req request, wall time.Duration) {
	line := slowOpLine{
		Event:       "slow_op",
		Op:          req.op.String(),
		WallUs:      float64(wall) / float64(time.Microsecond),
		ThresholdUs: float64(s.cfg.SlowOpThreshold) / float64(time.Microsecond),
		Role:        s.Role().String(),
		Shard:       s.cfg.ShardID,
	}
	if req.tc.Valid() {
		line.TraceID = fmt.Sprintf("%016x", req.tc.TraceID)
	}
	if sp := cs.lastSpan; sp != nil {
		if sp.TraceID != 0 {
			line.TraceID = fmt.Sprintf("%016x", sp.TraceID)
		}
		line.SpanWire = fmt.Sprintf("%016x", sp.Wire)
		line.VirtualUs = float64(sp.End-sp.Start) / 1e3
		var layers [4]slowOpLayer
		for _, ev := range sp.Events {
			switch ev.Kind {
			case obs.EvIO:
				l := &layers[int(ev.Layer)%len(layers)]
				l.IOs++
				l.Bytes += ev.Size
				l.IOUs += float64(ev.Latency) / 1e3
			case obs.EvCacheHit:
				line.PagerHits++
			case obs.EvCacheMiss:
				line.PagerMisses++
			case obs.EvWALCommit:
				line.WALCommitUs += float64(ev.Latency) / 1e3
			}
		}
		for i, l := range layers {
			if l.IOs == 0 {
				continue
			}
			l.Layer = obs.Layer(i).String()
			line.Layers = append(line.Layers, l)
		}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	_, _ = s.cfg.SlowOpLog.Write(buf)
}

// serveSnapOpen pins a snapshot at the current applied LSN (or a named one
// — time travel) and hands the connection an id for it.
func (s *Server) serveSnapOpen(cs *connState, req request) reply {
	if len(cs.snaps) >= maxSnapsPerConn {
		return failure(StatusBusy, "too many open snapshots on this connection")
	}
	var sn *engine.Snap
	var err error
	if req.atLSN {
		sn, err = s.backend.Eng.SnapshotAt(req.lsn)
	} else {
		sn, err = s.backend.Eng.Snapshot()
	}
	if err != nil {
		if errors.Is(err, engine.ErrSnapshotOutOfRange) {
			return failure(StatusSnapExpired, err.Error())
		}
		return failure(StatusErr, err.Error())
	}
	cs.nextSnap++
	cs.snaps[cs.nextSnap] = sn
	return reply{status: StatusOK, snapID: cs.nextSnap, lsn: sn.LSN()}
}

// serveSnapRead runs a snapshot Get/Scan. The fast path never consults the
// write queue, the state lock, or the read scheduler: a point read whose
// key has a recorded version resolves from the in-memory chain alone. Only
// chain misses — keys untouched since the snapshot opened, whose current
// tree value IS the snapshot value — and scans, whose tree merge reads the
// structure, take the scheduled read path, since they may do device IO. They
// never wait on the write queue: the snapshot's visibility does not depend
// on in-flight commits.
func (s *Server) serveSnapRead(cs *connState, req request) reply {
	sn, ok := cs.snaps[req.snapID]
	if !ok {
		return failure(StatusSnapExpired, fmt.Sprintf("unknown snapshot id %d", req.snapID))
	}
	if req.op == OpSnapGet {
		value, present, hit, err := sn.TryGet(req.key)
		if err != nil {
			return failure(StatusSnapExpired, err.Error())
		}
		if hit {
			s.metrics.snapChainHits.Add(1)
			sp := cs.client.StartSpanLinked(req.op.String(), obsTC(req.tc))
			sp.MVCCResolve(true, cs.client.Now())
			cs.client.FinishSpan(sp)
			if !present {
				return reply{status: StatusNotFound}
			}
			return reply{status: StatusOK, value: value}
		}
	}
	return s.scheduledRead(cs, req, sn)
}

// serveSnapRelease retires one snapshot (idempotent per id).
func (s *Server) serveSnapRelease(cs *connState, req request) reply {
	sn, ok := cs.snaps[req.snapID]
	if !ok {
		return failure(StatusSnapExpired, fmt.Sprintf("unknown snapshot id %d", req.snapID))
	}
	sn.Release()
	delete(cs.snaps, req.snapID)
	return reply{status: StatusOK}
}

// scheduledRead runs a Get/Scan — as of sn's pinned LSN when sn is non-nil —
// through the read scheduler: take a slot on the key's lane (or be shed),
// start at the later of the connection's cursor and the slot's free instant,
// read under the state read-lock, report completion.
func (s *Server) scheduledRead(cs *connState, req request, sn *engine.Snap) reply {
	client := cs.client
	affinity := req.key
	if req.op == OpScan || req.op == OpSnapScan {
		affinity = req.lo
	}
	t, ok := s.readSched.admit(s.readSched.laneOf(affinity), client.Now())
	if !ok {
		return failure(StatusBusy, "read queue full")
	}
	if t.launched != nil {
		<-t.launched
	}
	client.AlignTo(t.start)
	// The span opens at the read's virtual start, so its duration is the
	// request's virtual service time (queue wait is wall-clock and
	// deliberately excluded — virtual time is the models' currency). A
	// carried trace context links the span under the client's trace and
	// bypasses sampling; a zero context is the ordinary sampled StartSpan.
	sp := client.StartSpanLinked(req.op.String(), obsTC(req.tc))
	if sn != nil {
		sp.MVCCResolve(false, client.Now())
	}
	s.stateMu.RLock()
	rep := readThrough(cs.session, sn, req)
	s.stateMu.RUnlock()
	client.FinishSpan(sp)
	cs.lastSpan = sp
	s.readSched.done(t, client.Now())
	return rep
}

// readThrough answers a Get or Scan from the session, as of sn's pinned LSN
// when sn is non-nil (a snapshot read fails only by expiring).
func readThrough(session engine.Dictionary, sn *engine.Snap, req request) reply {
	rep := reply{status: StatusOK}
	var err error
	switch req.op {
	case OpGet, OpSnapGet:
		var found bool
		if sn != nil {
			rep.value, found, err = sn.Get(session, req.key)
		} else {
			rep.value, found = session.Get(req.key)
		}
		if !found {
			rep.status = StatusNotFound
		}
	case OpScan, OpSnapScan:
		rep.entries, err = collectScan(session, sn, req)
	}
	if err != nil {
		return failure(StatusSnapExpired, err.Error())
	}
	return rep
}

// collectScan is the one scan collector: up to req.limit entries of
// [req.lo, req.hi), copied out of the scan callback (which must not retain
// what it is handed).
func collectScan(session engine.Dictionary, sn *engine.Snap, req request) ([]kv.Entry, error) {
	// Empty bounds decode as non-nil empty slices; the trees read a non-nil
	// hi as a real bound, so normalize them to nil.
	var lo, hi []byte
	if len(req.lo) > 0 {
		lo = req.lo
	}
	if len(req.hi) > 0 {
		hi = req.hi
	}
	var entries []kv.Entry
	collect := func(k, v []byte) bool {
		entries = append(entries, kv.Entry{Key: k, Value: v}.Clone())
		return len(entries) < req.limit
	}
	var err error
	if sn != nil {
		err = sn.Scan(session, lo, hi, collect)
	} else {
		session.Scan(lo, hi, collect)
	}
	return entries, err
}

// serveWrite enqueues the mutation for the writer's next group commit and
// waits for the batch's WAL flush before acknowledging.
func (s *Server) serveWrite(cs *connState, req request) reply {
	if s.Role() == RoleReplica {
		return failure(StatusNotPrimary, "replica: writes go to the shard primary")
	}
	// The server-side span for this write: linked under the client's carried
	// trace when one arrived. Its own context rides the writeReq so the
	// group-commit span — and, through the stamped ship stream, a replica's
	// apply — links back to this request.
	sp := cs.client.StartSpanLinked(req.op.String(), obsTC(req.tc))
	tc := obsTC(req.tc)
	if sp != nil {
		tc = sp.Context()
	}
	if cs.writeDone == nil {
		cs.writeDone = make(chan writeResult, 1)
	}
	wr := writeReq{op: req.op, key: req.key, value: req.value, delta: req.delta,
		tc: tc, done: cs.writeDone}
	select {
	case s.writeCh <- wr:
	default:
		cs.client.FinishSpan(sp)
		cs.lastSpan = sp
		return failure(StatusBusy, "write queue full")
	}
	res := <-cs.writeDone
	// Read-your-write in virtual time: the connection's next read starts at
	// its own cursor, so the cursor must not stay behind the commit's end.
	cs.client.AlignTo(res.end)
	cs.client.FinishSpan(sp)
	cs.lastSpan = sp
	if res.err != nil {
		// Durability degraded (sticky WAL error): the mutation applied but
		// is not durable — surface that instead of a silent OK.
		return failure(StatusErr, fmt.Sprintf("durability: %v", res.err))
	}
	return reply{status: StatusOK, accepted: res.accepted}
}

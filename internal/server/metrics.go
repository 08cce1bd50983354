// Observability: per-op latency histograms, in-flight gauges, and counters,
// exported three ways — a JSON snapshot (the wire protocol's Stats op and
// HTTP /stats) and a Prometheus-style text rendering (HTTP /metrics).
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"iomodels/internal/engine"
	"iomodels/internal/obs"
	"iomodels/internal/stats"
)

// metrics is the server's counter set. All fields are atomics or fixed
// read-only structure, so the hot path never takes a lock for accounting.
type metrics struct {
	started time.Time

	conns      atomic.Int64 // open connections (gauge)
	connsTotal atomic.Int64
	inFlight   atomic.Int64 // requests being served (gauge)
	protoErrs  atomic.Int64

	// replies counts replies by status, bumped once per request where the
	// reply is encoded (serveRequest): /stats' busy, not_found, snap_expired
	// and not_primary_total are entries of it.
	replies [len(statusNames)]atomic.Int64

	writeBatches atomic.Int64 // group-commit batches applied
	writeOps     atomic.Int64 // mutations across those batches
	writeSteps   atomic.Int64 // virtual time spent applying them

	snapChainHits atomic.Int64 // snapshot gets resolved from the version chain (no IO)

	shipPulls       atomic.Int64 // ShipPull requests served
	shipRecords     atomic.Int64 // records shipped to subscribers
	shipAckTimeouts atomic.Int64 // sync-ship batches that waited out the ack window
	promotions      atomic.Int64 // replica → primary flips

	// gateWait is the wall-clock time group commits spend waiting at the
	// sync-ship ack gate (ns) — the replication latency tax per batch.
	gateWait *stats.LatencyHist

	// ops is each operation's wall-clock latency histogram (ns), indexed by
	// Op; its count is the op's completed total. Fixed at construction.
	ops [len(opNames)]*stats.LatencyHist
}

func newMetrics() *metrics {
	m := &metrics{started: time.Now(), gateWait: stats.NewLatencyHist()}
	for op := OpPing; int(op) < len(m.ops); op++ {
		m.ops[op] = stats.NewLatencyHist()
	}
	return m
}

// StatsSnapshot is the full /stats document. Field names are part of the
// protocol surface (loadgen and the CI smoke test parse them).
type StatsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Node identity (PR-10): the bound listen address ("" before Serve) and
	// the Go toolchain the binary was built with, so kvtop (and a human at
	// /stats) can tell nodes apart without out-of-band configuration.
	ListenAddr string `json:"listen_addr"`
	GoVersion  string `json:"go_version"`
	Device     string `json:"device"`
	BatchIOs   int    `json:"batch_ios"`  // read scheduler slots per lane (the device's P or per-queue service)
	ReadLanes  int    `json:"read_lanes"` // independent read lanes (device queues; 1 = global)

	Conns      int64 `json:"conns"`
	ConnsTotal int64 `json:"conns_total"`
	InFlight   int64 `json:"in_flight"`
	ReadQueued int64 `json:"read_queued"`
	ProtoErrs  int64 `json:"proto_errors"`
	Busy       int64 `json:"busy"`
	NotFound   int64 `json:"not_found"`

	Ops map[string]stats.LatencyMicros `json:"ops"`

	ReadBatches  int64   `json:"read_batches"`
	WriteBatches int64   `json:"write_batches"`
	WriteOps     int64   `json:"write_ops"`
	WriteSteps   int64   `json:"write_vsteps"`
	VClock       int64   `json:"vclock_ns"` // shared virtual clock, ns
	PagerHits    int64   `json:"pager_hits"`
	PagerMisses  int64   `json:"pager_misses"`
	PagerHit     float64 `json:"pager_hit_ratio"`
	DevReads     int64   `json:"dev_reads"`
	DevWrites    int64   `json:"dev_writes"`
	DevReadMB    float64 `json:"dev_read_mb"`
	DevWriteMB   float64 `json:"dev_write_mb"`
	// StoreResidentMB is the host memory the store image holds: the chunks a
	// write has touched, not the address range the node's regions span.
	StoreResidentMB float64 `json:"store_resident_mb"`

	WALRecords     int64  `json:"wal_records"`
	WALCommits     int64  `json:"wal_commits"`
	WALBytes       int64  `json:"wal_bytes"`
	Checkpoints    int64  `json:"checkpoints"`
	DurabilityErr  string `json:"durability_error,omitempty"`
	DurableEnabled bool   `json:"durable"`

	// Pager and write-path detail (PR-5 additions; existing fields above are
	// protocol surface and keep their meaning).
	PagerEvictions  int64   `json:"pager_evictions"`
	PagerWritebacks int64   `json:"pager_writebacks"`
	PagerDirtyMB    float64 `json:"pager_dirty_mb"`
	WriteQueueDepth int     `json:"write_queue_depth"`
	WriteBatchAvg   float64 `json:"write_batch_avg"`
	JournalMB       float64 `json:"journal_mb"` // checkpoint seals: table records and superblocks
	RedoMB          float64 `json:"redo_mb"`    // page bytes checkpoints wrote back
	PendingFree     int     `json:"pending_free"`

	// MVCC snapshot-read surface (PR-6). Horizon is the oldest LSN any live
	// snapshot pins (0 when none); chain hits are snapshot gets answered from
	// the version layer without touching the tree or the device.
	MVCCEnabled       bool    `json:"mvcc_enabled"`
	MVCCAppliedLSN    int64   `json:"mvcc_applied_lsn"`
	MVCCHorizonLSN    int64   `json:"mvcc_snapshot_horizon_lsn"`
	MVCCLiveSnapshots int64   `json:"mvcc_live_snapshots"`
	MVCCChains        int64   `json:"mvcc_chains"`
	MVCCVersions      int64   `json:"mvcc_versions"`
	MVCCOpened        int64   `json:"mvcc_snapshots_opened"`
	MVCCReleased      int64   `json:"mvcc_snapshots_released"`
	MVCCChainHits     int64   `json:"mvcc_chain_hits"`
	MVCCChainMisses   int64   `json:"mvcc_chain_misses"`
	MVCCTooOld        int64   `json:"mvcc_too_old"`
	MVCCReclVersions  int64   `json:"mvcc_reclaimed_versions"`
	MVCCReclChains    int64   `json:"mvcc_reclaimed_chains"`
	MVCCChainLens     []int64 `json:"mvcc_chain_len_hist,omitempty"`
	SnapChainHits     int64   `json:"snap_chain_hits"`
	SnapExpired       int64   `json:"snap_expired"`

	// Cluster surface (PR-7): the node's shard identity and role, and the
	// WAL-shipping stream's positions. On a primary, AckedLSN is the highest
	// LSN a replica pull has acknowledged; on a replica, AppliedLSN is the
	// highest shipped primary LSN applied locally.
	Role            string `json:"role"`
	ShardID         int    `json:"shard_id"`
	Shards          int    `json:"shards"`
	ShipEnabled     bool   `json:"ship_enabled"`
	ShipCommitted   int64  `json:"ship_committed_lsn"`
	ShipFloor       int64  `json:"ship_floor_lsn"`
	ShipBuffered    int    `json:"ship_buffered"`
	ShipRecords     int64  `json:"ship_records_total"`
	ShipPulls       int64  `json:"ship_pulls_total"`
	ShipAckedLSN    int64  `json:"ship_acked_lsn"`
	ShipAppliedLSN  int64  `json:"ship_applied_lsn"`
	ShipAckTimeouts int64  `json:"ship_ack_timeouts"`
	NotPrimary      int64  `json:"not_primary_total"`
	Promotions      int64  `json:"promotions_total"`

	// Replication-lag accounting (PR-10). ShipLag is always present (zero
	// until the cluster shipper feeds NoteShipLag on a replica); GateWait is
	// the sync-ship ack gate's wall-wait histogram summary on a primary.
	ShipLag  obs.LagSnapshot     `json:"ship_lag"`
	GateWait stats.LatencyMicros `json:"sync_gate_wait"`

	// Obs is the span tracer's summary (per-layer IO attribution and live
	// model residuals); present only when a tracer is attached.
	Obs *obs.Summary `json:"obs,omitempty"`
}

// Snapshot assembles the current stats document.
func (s *Server) Snapshot() StatsSnapshot {
	m := s.metrics
	queued, readBatches := s.readSched.snapshot()
	out := StatsSnapshot{
		UptimeSeconds: time.Since(m.started).Seconds(),
		ListenAddr:    s.ListenAddr(),
		GoVersion:     runtime.Version(),
		Device:        s.backend.Eng.Device().Name(),
		BatchIOs:      s.readSched.size,
		ReadLanes:     s.readSched.laneCount(),
		Conns:         m.conns.Load(),
		ConnsTotal:    m.connsTotal.Load(),
		InFlight:      m.inFlight.Load(),
		ReadQueued:    int64(queued),
		ProtoErrs:     m.protoErrs.Load(),
		Busy:          m.replies[StatusBusy].Load(),
		NotFound:      m.replies[StatusNotFound].Load(),
		Ops:           make(map[string]stats.LatencyMicros, len(m.ops)),
		ReadBatches:   readBatches,
		WriteBatches:  m.writeBatches.Load(),
		WriteOps:      m.writeOps.Load(),
		WriteSteps:    m.writeSteps.Load(),
		VClock:        int64(s.backend.Clock.Now()),
	}
	for op := OpPing; int(op) < len(m.ops); op++ {
		out.Ops[op.String()] = m.ops[op].Snapshot().Micros()
	}
	ps := s.backend.Eng.Pager().Stats()
	out.PagerHits, out.PagerMisses, out.PagerHit = ps.Hits, ps.Misses, ps.HitRatio()
	out.PagerEvictions, out.PagerWritebacks = ps.Evictions, ps.Writebacks
	out.PagerDirtyMB = float64(s.backend.Eng.Pager().DirtyBytes()) / (1 << 20)
	out.WriteQueueDepth = len(s.writeCh)
	if out.WriteBatches > 0 {
		out.WriteBatchAvg = float64(out.WriteOps) / float64(out.WriteBatches)
	}
	io := s.backend.Eng.Counters()
	out.DevReads, out.DevWrites = io.Reads, io.Writes
	out.DevReadMB = float64(io.BytesRead) / (1 << 20)
	out.DevWriteMB = float64(io.BytesWritten) / (1 << 20)
	out.StoreResidentMB = float64(s.backend.Eng.Store().Resident()) / (1 << 20)
	if ds := s.backend.Eng.DurabilityStats(); ds.Enabled {
		out.DurableEnabled = true
		out.WALRecords, out.WALCommits, out.WALBytes = ds.LogRecords, ds.LogCommits, ds.LogBytes
		out.Checkpoints = ds.Checkpoints
		out.JournalMB = float64(ds.JournalBytes) / (1 << 20)
		out.RedoMB = float64(ds.RedoBytes) / (1 << 20)
		out.PendingFree = ds.PendingFree
		if ds.Err != nil {
			out.DurabilityErr = ds.Err.Error()
		}
	}
	if ms := s.backend.Eng.MVCCStats(); ms.Enabled {
		out.MVCCEnabled = true
		out.MVCCAppliedLSN = int64(ms.AppliedLSN)
		out.MVCCHorizonLSN = int64(ms.HorizonLSN)
		out.MVCCLiveSnapshots = int64(ms.LiveSnapshots)
		out.MVCCChains, out.MVCCVersions = int64(ms.Chains), int64(ms.Versions)
		out.MVCCOpened, out.MVCCReleased = ms.SnapshotsOpened, ms.SnapshotsReleased
		out.MVCCChainHits, out.MVCCChainMisses = ms.ChainHits, ms.ChainMisses
		out.MVCCTooOld = ms.TooOld
		out.MVCCReclVersions, out.MVCCReclChains = ms.ReclaimedVersions, ms.ReclaimedChains
		out.MVCCChainLens = ms.ChainLenCounts
	}
	out.SnapChainHits = m.snapChainHits.Load()
	out.SnapExpired = m.replies[StatusSnapExpired].Load()
	out.Role = s.Role().String()
	out.ShardID, out.Shards = s.cfg.ShardID, s.cfg.Shards
	if ss := s.backend.Eng.ShipStats(); ss.Enabled {
		out.ShipEnabled = true
		out.ShipCommitted = int64(ss.CommittedLSN)
		out.ShipFloor = int64(ss.FloorLSN)
		out.ShipBuffered = ss.Buffered
	}
	out.ShipRecords = m.shipRecords.Load()
	out.ShipPulls = m.shipPulls.Load()
	out.ShipAckedLSN = int64(s.shipAckedLSN())
	out.ShipAppliedLSN = int64(s.shipAppliedLSN.Load())
	out.ShipAckTimeouts = m.shipAckTimeouts.Load()
	out.NotPrimary = m.replies[StatusNotPrimary].Load()
	out.Promotions = m.promotions.Load()
	out.ShipLag = s.lag.Snapshot()
	out.GateWait = m.gateWait.Snapshot().Micros()
	if tr := s.cfg.Tracer; tr != nil {
		sum := tr.Summary()
		out.Obs = &sum
	}
	return out
}

// MetricsHandler serves GET /stats (JSON) and GET /metrics
// (Prometheus-style text) for the server.
func (s *Server) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Snapshot())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.writeProm(w)
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if tr := s.cfg.Tracer; tr != nil {
			_ = tr.WriteSpansJSON(w)
			return
		}
		_, _ = w.Write([]byte("[]\n"))
	})
	return mux
}

// latencyBoundsNs are the op-latency histogram's bucket upper bounds:
// 1µs·4^k for k = 0..11 (1µs to ~4.2s), in nanoseconds to match the
// histograms' unit. Fixed bounds keep the exposition's bucket set stable
// across scrapes, as Prometheus requires.
var latencyBoundsNs = func() []int64 {
	b := make([]int64, 12)
	v := int64(1000)
	for i := range b {
		b[i] = v
		v *= 4
	}
	return b
}()

// promFamily writes one metric family's # HELP / # TYPE preamble.
func promFamily(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// promHistogram writes one series of a latency histogram family — the
// cumulative buckets on latencyBoundsNs, +Inf, _sum and _count, in seconds —
// straight from the lock-free stats.LatencyHist. labels is the series' label
// list without braces (`op="get"`), or "" for an unlabelled family.
func promHistogram(w io.Writer, name, labels string, h *stats.LatencyHist) {
	counts, total, sum := h.Cumulative(latencyBoundsNs)
	inner, outer := "", ""
	if labels != "" {
		inner, outer = labels+",", "{"+labels+"}"
	}
	for i, b := range latencyBoundsNs {
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, inner, float64(b)/1e9, counts[i])
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, inner, total)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, outer, float64(sum)/1e9)
	fmt.Fprintf(w, "%s_count%s %d\n", name, outer, total)
}

// writeProm renders the server's state in Prometheus exposition format:
// every family carries # HELP / # TYPE, every scalar goes through one helper
// at one line per family, and every latency histogram through promHistogram.
func (s *Server) writeProm(w io.Writer) {
	snap := s.Snapshot()
	scalar := func(name, typ, help string, v interface{}) {
		full := "kvserve_" + name
		promFamily(w, full, typ, help)
		fmt.Fprintf(w, "%s %v\n", full, v)
	}
	scalar("uptime_seconds", "gauge", "Seconds since the server started.", snap.UptimeSeconds)
	scalar("batch_ios", "gauge", "Read scheduler slots per lane (the device's parallelism P or per-queue service).", snap.BatchIOs)
	scalar("read_lanes", "gauge", "Independent read lanes (device queues; 1 = global scheduler).", snap.ReadLanes)
	scalar("conns", "gauge", "Open client connections.", snap.Conns)
	scalar("conns_total", "counter", "Connections accepted since start.", snap.ConnsTotal)
	scalar("in_flight", "gauge", "Requests currently being served.", snap.InFlight)
	scalar("read_queued", "gauge", "Reads queued or running in the read scheduler.", snap.ReadQueued)
	scalar("proto_errors_total", "counter", "Malformed or oversized requests.", snap.ProtoErrs)
	scalar("busy_total", "counter", "Requests shed by admission control.", snap.Busy)
	scalar("not_found_total", "counter", "Gets for absent keys.", snap.NotFound)
	scalar("read_batches_total", "counter", "Read launches that opened a new virtual start instant on their lane (a lone client: every read).", snap.ReadBatches)
	scalar("write_batches_total", "counter", "Group-commit batches applied.", snap.WriteBatches)
	scalar("write_ops_total", "counter", "Mutations applied across all batches.", snap.WriteOps)
	scalar("write_queue_depth", "gauge", "Mutations waiting in the write queue.", snap.WriteQueueDepth)
	scalar("write_batch_avg", "gauge", "Mean mutations per group-commit batch.", snap.WriteBatchAvg)
	scalar("vclock_ns", "gauge", "Shared virtual clock (device-model time), ns.", snap.VClock)
	scalar("pager_hits_total", "counter", "Buffer-pool hits.", snap.PagerHits)
	scalar("pager_misses_total", "counter", "Buffer-pool misses.", snap.PagerMisses)
	scalar("pager_hit_ratio", "gauge", "Buffer-pool hit ratio.", snap.PagerHit)
	scalar("pager_evictions_total", "counter", "Buffer-pool evictions.", snap.PagerEvictions)
	scalar("pager_writebacks_total", "counter", "Dirty-page write-backs.", snap.PagerWritebacks)
	scalar("pager_dirty_bytes", "gauge", "Encoded size of the dirty page set.", int64(snap.PagerDirtyMB*(1<<20)))
	scalar("device_reads_total", "counter", "Device read IOs.", snap.DevReads)
	scalar("device_writes_total", "counter", "Device write IOs.", snap.DevWrites)
	scalar("store_resident_bytes", "gauge", "Host memory held by the store image (chunks written).", int64(snap.StoreResidentMB*(1<<20)))
	scalar("wal_records_total", "counter", "WAL records appended.", snap.WALRecords)
	scalar("wal_commits_total", "counter", "WAL group commits.", snap.WALCommits)
	scalar("wal_bytes_total", "counter", "WAL bytes written (frames and headers).", snap.WALBytes)
	scalar("checkpoints_total", "counter", "Durability checkpoints sealed.", snap.Checkpoints)

	promFamily(w, "kvserve_role", "gauge", "Node role as a one-hot label (solo/primary/replica).")
	for _, role := range roleNames {
		v := 0
		if role == snap.Role {
			v = 1
		}
		fmt.Fprintf(w, "kvserve_role{role=%q} %d\n", role, v)
	}
	scalar("shard_id", "gauge", "This node's shard index.", snap.ShardID)
	scalar("shards", "gauge", "Shards in the cluster.", snap.Shards)
	if snap.ShipEnabled {
		scalar("ship_committed_lsn", "gauge", "Highest durable (shippable) LSN.", snap.ShipCommitted)
		scalar("ship_floor_lsn", "gauge", "Ship ring trim floor.", snap.ShipFloor)
		scalar("ship_buffered", "gauge", "Records buffered in the ship ring.", snap.ShipBuffered)
	}
	scalar("ship_records_total", "counter", "WAL records shipped to subscribers.", snap.ShipRecords)
	scalar("ship_pulls_total", "counter", "ShipPull requests served.", snap.ShipPulls)
	scalar("ship_acked_lsn", "gauge", "Highest LSN acknowledged by a replica pull.", snap.ShipAckedLSN)
	scalar("ship_applied_lsn", "gauge", "Highest shipped primary LSN applied locally (replica).", snap.ShipAppliedLSN)
	scalar("ship_ack_timeouts_total", "counter", "Sync-ship batches that waited out the ack window.", snap.ShipAckTimeouts)
	scalar("not_primary_total", "counter", "Writes refused because this node is a replica.", snap.NotPrimary)
	scalar("promotions_total", "counter", "Replica-to-primary promotions served.", snap.Promotions)

	promFamily(w, "kvserve_ship_lag_seconds", "gauge",
		"Replication lag behind the primary in seconds (stat: last, ewma, max over the sample window).")
	fmt.Fprintf(w, "kvserve_ship_lag_seconds{stat=\"last\"} %g\n", snap.ShipLag.LastSeconds)
	fmt.Fprintf(w, "kvserve_ship_lag_seconds{stat=\"ewma\"} %g\n", snap.ShipLag.EWMASeconds)
	fmt.Fprintf(w, "kvserve_ship_lag_seconds{stat=\"max\"} %g\n", snap.ShipLag.MaxSeconds)
	promFamily(w, "kvserve_ship_lag_lsns", "gauge",
		"Replication lag behind the primary in LSNs (stat: last, ewma, max over the sample window).")
	fmt.Fprintf(w, "kvserve_ship_lag_lsns{stat=\"last\"} %d\n", snap.ShipLag.LastLSNs)
	fmt.Fprintf(w, "kvserve_ship_lag_lsns{stat=\"ewma\"} %g\n", snap.ShipLag.EWMALSNs)
	fmt.Fprintf(w, "kvserve_ship_lag_lsns{stat=\"max\"} %d\n", snap.ShipLag.MaxLSNs)
	scalar("ship_lag_samples_total", "counter", "Replication-lag samples observed.", snap.ShipLag.Samples)

	promFamily(w, "kvserve_sync_gate_wait_seconds", "histogram",
		"Wall-clock wait at the sync-ship ack gate per group commit.")
	promHistogram(w, "kvserve_sync_gate_wait_seconds", "", s.metrics.gateWait)

	promFamily(w, "kvserve_node_info", "gauge",
		"Node identity as labels (listen address, Go toolchain); value is always 1.")
	fmt.Fprintf(w, "kvserve_node_info{addr=%q,go=%q} 1\n", snap.ListenAddr, snap.GoVersion)

	if snap.MVCCEnabled {
		scalar("mvcc_applied_lsn", "gauge", "Newest WAL LSN applied to the trees.", snap.MVCCAppliedLSN)
		scalar("mvcc_snapshot_horizon_lsn", "gauge", "Oldest LSN pinned by a live snapshot (0 when none).", snap.MVCCHorizonLSN)
		scalar("mvcc_live_snapshots", "gauge", "Snapshots currently pinned.", snap.MVCCLiveSnapshots)
		scalar("mvcc_chains", "gauge", "Keys with a recorded version chain.", snap.MVCCChains)
		scalar("mvcc_versions", "gauge", "Recorded versions across all chains.", snap.MVCCVersions)
		scalar("mvcc_snapshots_opened_total", "counter", "Snapshots opened since start.", snap.MVCCOpened)
		scalar("mvcc_snapshots_released_total", "counter", "Snapshots released since start.", snap.MVCCReleased)
		scalar("mvcc_chain_hits_total", "counter", "Snapshot reads resolved from a version chain.", snap.MVCCChainHits)
		scalar("mvcc_chain_misses_total", "counter", "Snapshot reads that fell through to the tree.", snap.MVCCChainMisses)
		scalar("mvcc_too_old_total", "counter", "Snapshot reads refused: the chain was trimmed past the pin.", snap.MVCCTooOld)
		scalar("mvcc_reclaimed_versions_total", "counter", "Versions reclaimed by horizon GC.", snap.MVCCReclVersions)
		scalar("mvcc_reclaimed_chains_total", "counter", "Whole chains reclaimed by horizon GC.", snap.MVCCReclChains)
		scalar("snap_expired_total", "counter", "Snapshot ops refused: unknown id or horizon passed.", snap.SnapExpired)
		promFamily(w, "kvserve_mvcc_chain_len", "histogram", "Version-chain length distribution (live chains).")
		var cum int64
		bounds := engine.ChainLenBounds()
		for i, c := range snap.MVCCChainLens {
			cum += c
			if i < len(bounds) {
				fmt.Fprintf(w, "kvserve_mvcc_chain_len_bucket{le=\"%d\"} %d\n", bounds[i], cum)
			}
		}
		fmt.Fprintf(w, "kvserve_mvcc_chain_len_bucket{le=\"+Inf\"} %d\n", cum)
		fmt.Fprintf(w, "kvserve_mvcc_chain_len_sum %d\n", snap.MVCCVersions)
		fmt.Fprintf(w, "kvserve_mvcc_chain_len_count %d\n", cum)
	}

	ops := make([]Op, 0, len(opNames))
	for op := OpPing; int(op) < len(opNames); op++ {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].String() < ops[j].String() })
	promFamily(w, "kvserve_op_total", "counter", "Completed operations by op.")
	for _, op := range ops {
		fmt.Fprintf(w, "kvserve_op_total{op=%q} %d\n", op, s.metrics.ops[op].Count())
	}
	promFamily(w, "kvserve_op_latency_seconds", "histogram", "Wall-clock operation latency.")
	for _, op := range ops {
		promHistogram(w, "kvserve_op_latency_seconds", fmt.Sprintf("op=%q", op), s.metrics.ops[op])
	}

	if o := snap.Obs; o != nil {
		scalar("obs_spans_total", "counter", "Finished sampled spans.", o.Spans)
		scalar("obs_ops_total", "counter", "Operations offered to the tracer (incl. sampled out).", o.Ops)
		scalar("obs_avg_concurrency", "gauge", "Estimated device concurrency (Little's law: recent IO time per unit of virtual-clock advance).", o.AvgConcurrency)
		writePromObs(w, o)
	}
}

// writePromObs renders the span tracer's labelled families: per-layer
// device-time attribution and the live model-residual quantiles.
func writePromObs(w io.Writer, o *obs.Summary) {

	promFamily(w, "kvserve_obs_layer_io_seconds", "counter", "Virtual device time attributed to each stack layer.")
	for _, l := range o.Layers {
		fmt.Fprintf(w, "kvserve_obs_layer_io_seconds{layer=%q} %g\n", l.Layer, l.TimeSeconds)
	}
	promFamily(w, "kvserve_obs_layer_io_total", "counter", "Device IOs attributed to each stack layer.")
	for _, l := range o.Layers {
		fmt.Fprintf(w, "kvserve_obs_layer_io_total{layer=%q} %d\n", l.Layer, l.IOs)
	}

	if len(o.Residuals) == 0 {
		return
	}
	promFamily(w, "kvserve_model_residual_ratio", "gauge",
		"Quantiles of |predicted-measured|/measured per cost model and op class.")
	for _, r := range o.Residuals {
		for _, q := range []struct {
			q string
			v float64
		}{{"0.5", r.P50}, {"0.9", r.P90}} {
			fmt.Fprintf(w, "kvserve_model_residual_ratio{model=%q,class=%q,quantile=%q} %g\n",
				r.Model, r.Class, q.q, q.v)
		}
	}
	promFamily(w, "kvserve_model_residual_count", "counter", "Operations accounted per cost model and op class.")
	for _, r := range o.Residuals {
		fmt.Fprintf(w, "kvserve_model_residual_count{model=%q,class=%q} %d\n", r.Model, r.Class, r.Count)
	}
}

// Observability: per-op latency histograms, in-flight gauges, and counters,
// exported three ways — a JSON snapshot (the wire protocol's Stats op and
// HTTP /stats) and a Prometheus-style text rendering (HTTP /metrics).
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strings"
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
//
// A field is also its /metrics scalar family, declared once in its tags:
// `prom:"name,type[,opts]"` (the name without the kvserve_ prefix, the type
// counter or gauge) and `help:"…"`. Option mib exports a MiB float as whole
// bytes; if=Field renders the family only while the bool Field of the same
// struct is true. prom:"-" marks a field, or a whole nested struct, that has
// no scalar family (it is not exported, or a labelled family in writeProm
// renders it). TestEveryStatsFieldDeclaresItsFamily fails on a numeric field
// that says neither.
type StatsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds" prom:"uptime_seconds,gauge" help:"Seconds since the server started."`
	// Node identity (PR-10): the bound listen address ("" before Serve) and
	// the Go toolchain the binary was built with, so kvtop (and a human at
	// /stats) can tell nodes apart without out-of-band configuration.
	ListenAddr string `json:"listen_addr"`
	GoVersion  string `json:"go_version"`
	Device     string `json:"device"`
	BatchIOs   int    `json:"batch_ios" prom:"batch_ios,gauge" help:"Read scheduler slots per lane (the device's parallelism P or per-queue service)."`
	ReadLanes  int    `json:"read_lanes" prom:"read_lanes,gauge" help:"Independent read lanes (device queues; 1 = global scheduler)."`

	Conns      int64 `json:"conns" prom:"conns,gauge" help:"Open client connections."`
	ConnsTotal int64 `json:"conns_total" prom:"conns_total,counter" help:"Connections accepted since start."`
	InFlight   int64 `json:"in_flight" prom:"in_flight,gauge" help:"Requests currently being served."`
	ReadQueued int64 `json:"read_queued" prom:"read_queued,gauge" help:"Reads queued or running in the read scheduler."`
	ProtoErrs  int64 `json:"proto_errors" prom:"proto_errors_total,counter" help:"Malformed or oversized requests."`
	Busy       int64 `json:"busy" prom:"busy_total,counter" help:"Requests shed by admission control."`
	NotFound   int64 `json:"not_found" prom:"not_found_total,counter" help:"Gets for absent keys."`

	Ops map[string]stats.LatencyMicros `json:"ops" prom:"-"`

	ReadBatches  int64   `json:"read_batches" prom:"read_batches_total,counter" help:"Read launches that opened a new virtual start instant on their lane (a lone client: every read)."`
	WriteBatches int64   `json:"write_batches" prom:"write_batches_total,counter" help:"Group-commit batches applied."`
	WriteOps     int64   `json:"write_ops" prom:"write_ops_total,counter" help:"Mutations applied across all batches."`
	WriteSteps   int64   `json:"write_vsteps" prom:"-"` // virtual time: exported once, as vclock_ns
	VClock       int64   `json:"vclock_ns" prom:"vclock_ns,gauge" help:"Shared virtual clock (device-model time), ns."`
	PagerHits    int64   `json:"pager_hits" prom:"pager_hits_total,counter" help:"Buffer-pool hits."`
	PagerMisses  int64   `json:"pager_misses" prom:"pager_misses_total,counter" help:"Buffer-pool misses."`
	PagerHit     float64 `json:"pager_hit_ratio" prom:"pager_hit_ratio,gauge" help:"Buffer-pool hit ratio."`
	DevReads     int64   `json:"dev_reads" prom:"device_reads_total,counter" help:"Device read IOs."`
	DevWrites    int64   `json:"dev_writes" prom:"device_writes_total,counter" help:"Device write IOs."`
	DevReadMB    float64 `json:"dev_read_mb" prom:"device_read_bytes_total,counter,mib" help:"Bytes read from the device."`
	DevWriteMB   float64 `json:"dev_write_mb" prom:"device_write_bytes_total,counter,mib" help:"Bytes written to the device."`
	// StoreResidentMB is the host memory the store image holds: the chunks a
	// write has touched, not the address range the node's regions span.
	StoreResidentMB float64 `json:"store_resident_mb" prom:"store_resident_bytes,gauge,mib" help:"Host memory held by the store image (chunks written)."`

	WALRecords     int64  `json:"wal_records" prom:"wal_records_total,counter" help:"WAL records appended."`
	WALCommits     int64  `json:"wal_commits" prom:"wal_commits_total,counter" help:"WAL group commits."`
	WALBytes       int64  `json:"wal_bytes" prom:"wal_bytes_total,counter" help:"WAL bytes written (frames and headers)."`
	Checkpoints    int64  `json:"checkpoints" prom:"checkpoints_total,counter" help:"Durability checkpoints sealed."`
	DurabilityErr  string `json:"durability_error,omitempty"`
	DurableEnabled bool   `json:"durable" prom:"-"` // configuration, fixed at boot

	// Pager and write-path detail (PR-5 additions; existing fields above are
	// protocol surface and keep their meaning).
	PagerEvictions  int64   `json:"pager_evictions" prom:"pager_evictions_total,counter" help:"Buffer-pool evictions."`
	PagerWritebacks int64   `json:"pager_writebacks" prom:"pager_writebacks_total,counter" help:"Dirty-page write-backs."`
	PagerDirtyMB    float64 `json:"pager_dirty_mb" prom:"pager_dirty_bytes,gauge,mib" help:"Encoded size of the dirty page set."`
	WriteQueueDepth int     `json:"write_queue_depth" prom:"write_queue_depth,gauge" help:"Mutations waiting in the write queue."`
	WriteBatchAvg   float64 `json:"write_batch_avg" prom:"write_batch_avg,gauge" help:"Mean mutations per group-commit batch."`
	JournalMB       float64 `json:"journal_mb" prom:"journal_bytes_total,counter,mib" help:"Checkpoint seal bytes: table records and superblocks."`
	RedoMB          float64 `json:"redo_mb" prom:"redo_bytes_total,counter,mib" help:"Page bytes that checkpoints wrote back."`
	PendingFree     int     `json:"pending_free" prom:"-"` // extents of mixed sizes: no byte count

	// MVCC snapshot-read surface (PR-6). Horizon is the oldest LSN any live
	// snapshot pins (0 when none); chain hits are snapshot gets answered from
	// the version layer without touching the tree or the device.
	MVCCEnabled       bool    `json:"mvcc_enabled" prom:"-"`
	MVCCAppliedLSN    int64   `json:"mvcc_applied_lsn" prom:"mvcc_applied_lsn,gauge,if=MVCCEnabled" help:"Newest WAL LSN applied to the trees."`
	MVCCHorizonLSN    int64   `json:"mvcc_snapshot_horizon_lsn" prom:"mvcc_snapshot_horizon_lsn,gauge,if=MVCCEnabled" help:"Oldest LSN pinned by a live snapshot (0 when none)."`
	MVCCLiveSnapshots int64   `json:"mvcc_live_snapshots" prom:"mvcc_live_snapshots,gauge,if=MVCCEnabled" help:"Snapshots currently pinned."`
	MVCCChains        int64   `json:"mvcc_chains" prom:"mvcc_chains,gauge,if=MVCCEnabled" help:"Keys with a recorded version chain."`
	MVCCVersions      int64   `json:"mvcc_versions" prom:"mvcc_versions,gauge,if=MVCCEnabled" help:"Recorded versions across all chains."`
	MVCCOpened        int64   `json:"mvcc_snapshots_opened" prom:"mvcc_snapshots_opened_total,counter,if=MVCCEnabled" help:"Snapshots opened since start."`
	MVCCReleased      int64   `json:"mvcc_snapshots_released" prom:"mvcc_snapshots_released_total,counter,if=MVCCEnabled" help:"Snapshots released since start."`
	MVCCChainHits     int64   `json:"mvcc_chain_hits" prom:"mvcc_chain_hits_total,counter,if=MVCCEnabled" help:"Snapshot reads resolved from a version chain."`
	MVCCChainMisses   int64   `json:"mvcc_chain_misses" prom:"mvcc_chain_misses_total,counter,if=MVCCEnabled" help:"Snapshot reads that fell through to the tree."`
	MVCCTooOld        int64   `json:"mvcc_too_old" prom:"mvcc_too_old_total,counter,if=MVCCEnabled" help:"Snapshot reads refused: the chain was trimmed past the pin."`
	MVCCReclVersions  int64   `json:"mvcc_reclaimed_versions" prom:"mvcc_reclaimed_versions_total,counter,if=MVCCEnabled" help:"Versions reclaimed by horizon GC."`
	MVCCReclChains    int64   `json:"mvcc_reclaimed_chains" prom:"mvcc_reclaimed_chains_total,counter,if=MVCCEnabled" help:"Whole chains reclaimed by horizon GC."`
	MVCCChainLens     []int64 `json:"mvcc_chain_len_hist,omitempty" prom:"-"`
	SnapChainHits     int64   `json:"snap_chain_hits" prom:"-"` // the events mvcc_chain_hits_total counts
	SnapExpired       int64   `json:"snap_expired" prom:"snap_expired_total,counter,if=MVCCEnabled" help:"Snapshot ops refused: unknown id or horizon passed."`

	// Cluster surface (PR-7): the node's shard identity and role, and the
	// WAL-shipping stream's positions. On a primary, AckedLSN is the highest
	// LSN a replica pull has acknowledged; on a replica, AppliedLSN is the
	// highest shipped primary LSN applied locally.
	Role            string `json:"role"`
	ShardID         int    `json:"shard_id" prom:"shard_id,gauge" help:"This node's shard index."`
	Shards          int    `json:"shards" prom:"shards,gauge" help:"Shards in the cluster."`
	ShipEnabled     bool   `json:"ship_enabled" prom:"-"`
	ShipCommitted   int64  `json:"ship_committed_lsn" prom:"ship_committed_lsn,gauge,if=ShipEnabled" help:"Highest durable (shippable) LSN."`
	ShipFloor       int64  `json:"ship_floor_lsn" prom:"ship_floor_lsn,gauge,if=ShipEnabled" help:"Ship ring trim floor."`
	ShipBuffered    int    `json:"ship_buffered" prom:"ship_buffered,gauge,if=ShipEnabled" help:"Records buffered in the ship ring."`
	ShipRecords     int64  `json:"ship_records_total" prom:"ship_records_total,counter" help:"WAL records shipped to subscribers."`
	ShipPulls       int64  `json:"ship_pulls_total" prom:"ship_pulls_total,counter" help:"ShipPull requests served."`
	ShipAckedLSN    int64  `json:"ship_acked_lsn" prom:"ship_acked_lsn,gauge" help:"Highest LSN acknowledged by a replica pull."`
	ShipAppliedLSN  int64  `json:"ship_applied_lsn" prom:"ship_applied_lsn,gauge" help:"Highest shipped primary LSN applied locally (replica)."`
	ShipAckTimeouts int64  `json:"ship_ack_timeouts" prom:"ship_ack_timeouts_total,counter" help:"Sync-ship batches that waited out the ack window."`
	NotPrimary      int64  `json:"not_primary_total" prom:"not_primary_total,counter" help:"Writes refused because this node is a replica."`
	Promotions      int64  `json:"promotions_total" prom:"promotions_total,counter" help:"Replica-to-primary promotions served."`

	// Replication-lag accounting (PR-10). ShipLag is always present (zero
	// until the cluster shipper feeds NoteShipLag on a replica); GateWait is
	// the sync-ship ack gate's wall-wait histogram summary on a primary.
	ShipLag  obs.LagSnapshot     `json:"ship_lag"`
	GateWait stats.LatencyMicros `json:"sync_gate_wait" prom:"-"`

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
	out.ShipAckedLSN = int64(s.shipAcked.Load())
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
// histograms' unit, and latencyBoundsSec the same bounds in seconds, the
// exposition's unit. Fixed bounds keep the exposition's bucket set stable
// across scrapes, as Prometheus requires.
var latencyBoundsNs, latencyBoundsSec = func() (ns []int64, sec []float64) {
	for v := int64(1000); len(ns) < 12; v *= 4 {
		ns, sec = append(ns, v), append(sec, float64(v)/1e9)
	}
	return ns, sec
}()

// promWriter writes Prometheus exposition text. Its family and sample
// methods are the only place the kvserve_ prefix is written: a family is
// named without it, in a prom tag or in a family call.
type promWriter struct{ io.Writer }

// family writes one metric family's # HELP / # TYPE preamble.
func (p promWriter) family(name, typ, help string) {
	fmt.Fprintf(p, "# HELP kvserve_%s %s\n# TYPE kvserve_%s %s\n", name, help, name, typ)
}

// sample writes one sample. labels is the series' label list without braces
// (`op="get"`), or "" for an unlabelled series.
func (p promWriter) sample(name, labels string, v any) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(p, "kvserve_%s%s %v\n", name, labels, v)
}

// buckets writes one series of a histogram family: the cumulative counts cum
// on the upper bounds le, +Inf, _sum and _count.
func (p promWriter) buckets(name, labels string, le []float64, cum []int64, total int64, sum any) {
	inner := strings.TrimPrefix(labels+",", ",") // labels joined to le
	for i, c := range cum {
		p.sample(name+"_bucket", fmt.Sprintf("%sle=\"%g\"", inner, le[i]), c)
	}
	p.sample(name+"_bucket", inner+`le="+Inf"`, total)
	p.sample(name+"_sum", labels, sum)
	p.sample(name+"_count", labels, total)
}

// latency writes one series of a latency histogram family, in seconds,
// straight from the lock-free stats.LatencyHist.
func (p promWriter) latency(name, labels string, h *stats.LatencyHist) {
	cum, total, sum := h.Cumulative(latencyBoundsNs)
	p.buckets(name, labels, latencyBoundsSec, cum, total, float64(sum)/1e9)
}

// promTag is a scalar family's declaration, parsed from a field's prom tag
// (see StatsSnapshot). Parsing is lenient; TestEveryStatsFieldDeclaresItsFamily
// holds every tag to the grammar.
type promTag struct {
	name, typ, cond string
	mib             bool
}

func parsePromTag(tag string) (d promTag) {
	var opts string
	d.name, d.typ, _ = strings.Cut(tag, ",")
	d.typ, opts, _ = strings.Cut(d.typ, ",")
	for _, o := range strings.Split(opts, ",") {
		if c, ok := strings.CutPrefix(o, "if="); ok {
			d.cond = c
		}
		d.mib = d.mib || o == "mib"
	}
	return d
}

// scalars writes the family each prom-tagged field of the struct v declares,
// in declaration order, descending into untagged struct fields and non-nil
// pointers to structs.
func (p promWriter) scalars(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		switch tag := f.Tag.Get("prom"); tag {
		case "-":
		case "":
			if fv = reflect.Indirect(fv); fv.Kind() == reflect.Struct {
				p.scalars(fv)
			}
		default:
			d := parsePromTag(tag)
			if d.cond != "" && !v.FieldByName(d.cond).Bool() {
				continue
			}
			x := fv.Interface()
			if d.mib {
				x = int64(fv.Float() * (1 << 20))
			}
			p.family(d.name, d.typ, f.Tag.Get("help"))
			p.sample(d.name, "", x)
		}
	}
}

// writeProm renders the server's state in Prometheus exposition format: the
// scalar families StatsSnapshot's field tags declare, then the labelled
// families and histograms, every one through promWriter.
func (s *Server) writeProm(w io.Writer) {
	snap := s.Snapshot()
	p := promWriter{w}
	p.scalars(reflect.ValueOf(snap))

	p.family("role", "gauge", "Node role as a one-hot label (solo/primary/replica).")
	for _, role := range roleNames {
		v := 0
		if role == snap.Role {
			v = 1
		}
		p.sample("role", fmt.Sprintf("role=%q", role), v)
	}

	lag := snap.ShipLag
	p.family("ship_lag_seconds", "gauge",
		"Replication lag behind the primary in seconds (stat: last, ewma, max over the sample window).")
	p.sample("ship_lag_seconds", `stat="last"`, lag.LastSeconds)
	p.sample("ship_lag_seconds", `stat="ewma"`, lag.EWMASeconds)
	p.sample("ship_lag_seconds", `stat="max"`, lag.MaxSeconds)
	p.family("ship_lag_lsns", "gauge",
		"Replication lag behind the primary in LSNs (stat: last, ewma, max over the sample window).")
	p.sample("ship_lag_lsns", `stat="last"`, lag.LastLSNs)
	p.sample("ship_lag_lsns", `stat="ewma"`, lag.EWMALSNs)
	p.sample("ship_lag_lsns", `stat="max"`, lag.MaxLSNs)

	p.family("sync_gate_wait_seconds", "histogram", "Wall-clock wait at the sync-ship ack gate per group commit.")
	p.latency("sync_gate_wait_seconds", "", s.metrics.gateWait)

	p.family("node_info", "gauge", "Node identity as labels (listen address, Go toolchain); value is always 1.")
	p.sample("node_info", fmt.Sprintf("addr=%q,go=%q", snap.ListenAddr, snap.GoVersion), 1)

	if snap.MVCCEnabled {
		bounds := engine.ChainLenBounds()
		le, cum := make([]float64, len(bounds)), make([]int64, len(bounds))
		var total int64
		for i, c := range snap.MVCCChainLens {
			total += c
			if i < len(bounds) {
				le[i], cum[i] = float64(bounds[i]), total
			}
		}
		p.family("mvcc_chain_len", "histogram", "Version-chain length distribution (live chains).")
		p.buckets("mvcc_chain_len", "", le, cum, total, snap.MVCCVersions)
	}

	ops := make([]Op, 0, len(opNames))
	for op := OpPing; int(op) < len(opNames); op++ {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].String() < ops[j].String() })
	p.family("op_total", "counter", "Completed operations by op.")
	for _, op := range ops {
		p.sample("op_total", fmt.Sprintf("op=%q", op), s.metrics.ops[op].Count())
	}
	p.family("op_latency_seconds", "histogram", "Wall-clock operation latency.")
	for _, op := range ops {
		p.latency("op_latency_seconds", fmt.Sprintf("op=%q", op), s.metrics.ops[op])
	}

	if snap.Obs != nil {
		p.obs(snap.Obs)
	}
}

// obs renders the span tracer's labelled families: per-layer device-time
// attribution and the live model-residual quantiles.
func (p promWriter) obs(o *obs.Summary) {
	p.family("obs_layer_io_seconds", "counter", "Virtual device time attributed to each stack layer.")
	for _, l := range o.Layers {
		p.sample("obs_layer_io_seconds", fmt.Sprintf("layer=%q", l.Layer), l.TimeSeconds)
	}
	p.family("obs_layer_io_total", "counter", "Device IOs attributed to each stack layer.")
	for _, l := range o.Layers {
		p.sample("obs_layer_io_total", fmt.Sprintf("layer=%q", l.Layer), l.IOs)
	}

	if len(o.Residuals) == 0 {
		return
	}
	p.family("model_residual_ratio", "gauge", "Quantiles of |predicted-measured|/measured per cost model and op class.")
	for _, r := range o.Residuals {
		p.sample("model_residual_ratio", fmt.Sprintf("model=%q,class=%q,quantile=\"0.5\"", r.Model, r.Class), r.P50)
		p.sample("model_residual_ratio", fmt.Sprintf("model=%q,class=%q,quantile=\"0.9\"", r.Model, r.Class), r.P90)
	}
	p.family("model_residual_count", "counter", "Operations accounted per cost model and op class.")
	for _, r := range o.Residuals {
		p.sample("model_residual_count", fmt.Sprintf("model=%q,class=%q", r.Model, r.Class), r.Count)
	}
}

// Command loadgen drives a kvserve instance with a closed-loop YCSB-style
// workload: k client connections, each issuing one request at a time from a
// weighted operation mix over a (optionally Zipfian) key population — the
// concurrency shape of the paper's Lemma 13 experiment.
//
// Usage:
//
//	loadgen -addr HOST:PORT [-clients K] [-ops N] [-ycsb a|b|c|f]
//	        [-mix get=95,put=5,...] [-theta 0.99] [-keys N] [-seed S]
//	        [-scanners K] [-snapcheck]
//
// It reports aggregate throughput, wall-clock latency percentiles (merged
// from per-client histograms), busy (shed) counts, and — with -stats — the
// server's own snapshot afterwards.
//
// -scanners K runs the scan-beside-OLTP mix: K extra connections page
// through the whole keyspace with long MVCC snapshot scans while the
// closed-loop point clients run, and scan latency is reported separately
// from point latency — the workload that motivates LSN-pinned reads (a
// long analytical scan must neither block nor be torn by concurrent
// writes).
//
// -snapcheck is a smoke probe for CI: open a snapshot, write past it, and
// verify the pinned read still returns the old value.
//
// -cluster "p0/r0a/r0b;p1" spreads the load over a sharded cluster through
// internal/cluster's router (shards ';'-separated, each shard's endpoints
// '/'-separated with the primary first); every client gets its own router,
// and a mid-run primary kill is absorbed by failover instead of failing the
// run. In cluster mode the routers' failover counters (failovers, probes,
// promotes) are reported after the run. -verify switches to the acked-write
// audit: each client writes unique keys, records exactly the acknowledged
// ones, and reads them all back at the end — the run fails unless it can
// report "0 lost acks".
//
// -bench-json FILE writes a machine-readable summary of the run: throughput,
// overall and per-op-class latency percentiles, shed/miss counts, router
// failover counters, and the -verify audit result.
//
// -trace-every N stamps every Nth operation with a fresh trace context
// (single-node mode only): the server continues the trace with its own
// spans, and -spans-out FILE dumps loadgen's client-side spans in the same
// JSON form as the server's /spans endpoint, so iotrace -merge renders the
// client, primary, and replica halves of each traced op as one timeline.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iomodels/internal/cluster"
	"iomodels/internal/kv"
	"iomodels/internal/obs"
	"iomodels/internal/server"
	"iomodels/internal/stats"
	"iomodels/internal/workload"
)

// kvConn is the operation surface shared by a direct *server.Client and a
// *cluster.Router: everything the closed-loop mix needs.
type kvConn interface {
	Get(key []byte) ([]byte, bool, error)
	Put(key, value []byte) error
	Delete(key []byte) (bool, error)
	Upsert(key []byte, delta int64) error
	Scan(lo, hi []byte, limit int) ([]kv.Entry, error)
}

// dialFn opens one client's connection (a single-node client or a per-client
// router) and returns it with its closer.
type dialFn func() (kvConn, func(), error)

// traceStarter is the optional tracing surface of a connection: a direct
// *server.Client implements it (the router does not — cluster tracing would
// need the routed shard's connection, so -trace-every is single-node only).
type traceStarter interface {
	TraceNext() kv.TraceContext
}

// spanLog collects loadgen's client-side spans for -spans-out: one SpanJSON
// per traced op, in the same shape as the server's /spans dump, so the
// merged Chrome trace shows the op's client half with flow arrows into the
// server spans that carried its trace context.
type spanLog struct {
	mu    sync.Mutex
	spans []obs.SpanJSON
}

func (sl *spanLog) add(sp obs.SpanJSON) {
	sl.mu.Lock()
	sl.spans = append(sl.spans, sp)
	sl.mu.Unlock()
}

func (sl *spanLog) write(path string) error {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(sl.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchSummary is the -bench-json document.
type benchSummary struct {
	Clients        int                            `json:"clients"`
	OpsPerClient   int                            `json:"ops_per_client"`
	ElapsedSeconds float64                        `json:"elapsed_seconds"`
	Throughput     float64                        `json:"throughput_ops_per_sec"`
	Latency        stats.LatencyMicros            `json:"latency"`
	Classes        map[string]stats.LatencyMicros `json:"classes"`
	BusyShed       int64                          `json:"busy_shed"`
	NotFound       int64                          `json:"not_found"`
	TracedOps      int64                          `json:"traced_ops,omitempty"`
	ScanLatency    *stats.LatencyMicros           `json:"scan_latency,omitempty"`
	Router         *cluster.RouterStats           `json:"router,omitempty"`
	Verify         *verifySummary                 `json:"verify,omitempty"`
}

func writeBenchJSON(path string, sum benchSummary) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Busy backoff: shed requests retry the same slot, but never in a hot spin —
// a saturated server answering StatusBusy in microseconds would otherwise
// burn both sides' CPU on refusals. Capped exponential with jitter.
const (
	busyBase = 200 * time.Microsecond
	busyMax  = 50 * time.Millisecond
)

// nextBusyDelay advances the per-connection backoff (0 starts it).
func nextBusyDelay(d time.Duration) time.Duration {
	if d == 0 {
		return busyBase
	}
	if d *= 2; d > busyMax {
		d = busyMax
	}
	return d
}

// sleepJittered sleeps a uniform random duration in [d/2, d], decorrelating
// the retry storms of clients shed by the same full queue.
func sleepJittered(d time.Duration) {
	time.Sleep(d/2 + time.Duration(rand.Int63n(int64(d)/2+1)))
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "kvserve address")
	clients := flag.Int("clients", 8, "concurrent closed-loop connections")
	ops := flag.Int("ops", 1000, "operations per client")
	ycsb := flag.String("ycsb", "", "preset mix: a (50r/50w), b (95r/5w), c (100r), f (50r/50rmw)")
	mixFlag := flag.String("mix", "", "weighted mix, e.g. get=95,put=5 (ops: get,put,delete,scan,upsert,rmw)")
	theta := flag.Float64("theta", 0, "Zipf skew over the key population (0: uniform)")
	keys := flag.Int64("keys", 100_000, "key population size")
	scanLen := flag.Int("scanlen", 100, "entries per scan")
	seed := flag.Uint64("seed", 1, "workload seed")
	showStats := flag.Bool("stats", false, "print the server's /stats document afterwards")
	scanners := flag.Int("scanners", 0, "snapshot-scan connections paging the keyspace beside the OLTP clients")
	snapcheck := flag.Bool("snapcheck", false, "run the snapshot smoke probe and exit")
	clusterFlag := flag.String("cluster", "", "shard topology, shards ';'-separated, endpoints '/'-separated, primary first (overrides -addr)")
	verify := flag.Bool("verify", false, "acked-write audit: unique keys per client, read every acknowledged write back at the end")
	benchJSON := flag.String("bench-json", "", "write a machine-readable run summary (JSON) to this file")
	traceEvery := flag.Int("trace-every", 0, "stamp every Nth op with a trace context the server continues (single-node only; 0: off)")
	spansOut := flag.String("spans-out", "", "write client-side spans of traced ops here (JSON, for iotrace -merge)")
	flag.Parse()

	dial := dialFn(func() (kvConn, func(), error) {
		cl, err := server.Dial(*addr)
		if err != nil {
			return nil, nil, err
		}
		return cl, func() { cl.Close() }, nil
	})
	// In cluster mode every client builds its own router; keep them all so
	// the failover counters can be summed after the run.
	var (
		routersMu sync.Mutex
		routers   []*cluster.Router
	)
	if *clusterFlag != "" {
		if *scanners > 0 || *snapcheck || *showStats {
			fatalf("-scanners, -snapcheck, and -stats talk to a single node; not supported with -cluster")
		}
		if *traceEvery > 0 {
			fatalf("-trace-every stamps a single node's connection; not supported with -cluster")
		}
		specs, err := cluster.ParseTopology(*clusterFlag)
		if err != nil {
			fatalf("%v", err)
		}
		dial = func() (kvConn, func(), error) {
			r, err := cluster.NewRouter(cluster.RouterConfig{Shards: specs})
			if err != nil {
				return nil, nil, err
			}
			routersMu.Lock()
			routers = append(routers, r)
			routersMu.Unlock()
			return r, r.Close, nil
		}
	}
	routerStats := func() *cluster.RouterStats {
		routersMu.Lock()
		defer routersMu.Unlock()
		if len(routers) == 0 {
			return nil
		}
		var sum cluster.RouterStats
		for _, r := range routers {
			rs := r.Stats()
			sum.Failovers += rs.Failovers
			sum.Probes += rs.Probes
			sum.Promotes += rs.Promotes
		}
		return &sum
	}

	if *verify {
		vs, err := runVerify(dial, *clients, *ops)
		rs := routerStats()
		if rs != nil {
			fmt.Printf("router: failovers=%d probes=%d promotes=%d\n", rs.Failovers, rs.Probes, rs.Promotes)
		}
		if *benchJSON != "" {
			sum := benchSummary{
				Clients: *clients, OpsPerClient: *ops,
				ElapsedSeconds: vs.ElapsedSeconds,
				Router:         rs,
				Verify:         &vs,
			}
			if jerr := writeBenchJSON(*benchJSON, sum); jerr != nil {
				fatalf("bench-json: %v", jerr)
			}
		}
		if err != nil {
			fatalf("%v", err)
		}
		return
	}

	if *snapcheck {
		if err := runSnapcheck(*addr); err != nil {
			fatalf("snapcheck: %v", err)
		}
		fmt.Println("snapcheck: ok (pinned read unchanged by later write)")
		return
	}

	mix, err := parseMix(*ycsb, *mixFlag, *scanLen)
	if err != nil {
		fatalf("%v", err)
	}

	spec := workload.DefaultSpec()
	hist := stats.NewLatencyHist()
	var shed, misses, traced atomic.Int64
	classHists := make([]*stats.LatencyHist, int(workload.OpRMW)+1)
	for i := range classHists {
		classHists[i] = stats.NewLatencyHist()
	}
	spans := &spanLog{}

	start := time.Now()
	errs := make(chan error, *clients)
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs <- runClient(c, dial, spec, workload.NewStream(spec, *seed+uint64(c), *keys, mix, *theta),
				*ops, hist, classHists, &shed, &misses, *traceEvery, &traced, spans)
		}(c)
	}

	// Scan-beside-OLTP: the scanners run until the point clients finish.
	scanHist := stats.NewLatencyHist()
	var scans, scanned int64
	var scanErrs []error
	if *scanners > 0 {
		oltpDone := make(chan struct{})
		var swg sync.WaitGroup
		scanErrs = make([]error, *scanners)
		for i := 0; i < *scanners; i++ {
			swg.Add(1)
			go func(i int) {
				defer swg.Done()
				n, entries, err := runScanner(*addr, *scanLen, scanHist, oltpDone)
				atomic.AddInt64(&scans, n)
				atomic.AddInt64(&scanned, entries)
				scanErrs[i] = err
			}(i)
		}
		wg.Wait()
		close(oltpDone)
		swg.Wait()
	} else {
		wg.Wait()
	}
	close(errs)
	for err := range errs {
		if err != nil {
			fatalf("%v", err)
		}
	}
	for _, err := range scanErrs {
		if err != nil {
			fatalf("scanner: %v", err)
		}
	}
	elapsed := time.Since(start)

	total := int64(*clients) * int64(*ops)
	lat := hist.Snapshot().Micros()
	fmt.Printf("loadgen: %d clients x %d ops in %.2fs = %.0f ops/s\n",
		*clients, *ops, elapsed.Seconds(), float64(total)/elapsed.Seconds())
	fmt.Printf("latency µs: mean=%.0f p50=%.0f p95=%.0f p99=%.0f max=%.0f\n",
		lat.MeanUs, lat.P50Us, lat.P95Us, lat.P99Us, lat.MaxUs)
	classes := make(map[string]stats.LatencyMicros)
	var parts []string
	for k, h := range classHists {
		if l := h.Snapshot().Micros(); l.Count > 0 {
			classes[workload.OpKind(k).String()] = l
			parts = append(parts, fmt.Sprintf("%s=%d", workload.OpKind(k), l.Count))
		}
	}
	fmt.Printf("ops: %s; busy(shed)=%d not_found=%d\n", strings.Join(parts, " "), shed.Load(), misses.Load())
	if *traceEvery > 0 {
		fmt.Printf("traced: %d ops carried a trace context (every %d)\n", traced.Load(), *traceEvery)
	}
	var scanLat *stats.LatencyMicros
	if *scanners > 0 {
		l := scanHist.Snapshot().Micros()
		fmt.Printf("snapshot scans: %d scanners, %d scans (%d entries)\n", *scanners, scans, scanned)
		fmt.Printf("scan latency µs: mean=%.0f p50=%.0f p95=%.0f p99=%.0f max=%.0f\n",
			l.MeanUs, l.P50Us, l.P95Us, l.P99Us, l.MaxUs)
		scanLat = &l
	}
	rs := routerStats()
	if rs != nil {
		fmt.Printf("router: failovers=%d probes=%d promotes=%d\n", rs.Failovers, rs.Probes, rs.Promotes)
	}
	if *benchJSON != "" {
		sum := benchSummary{
			Clients:        *clients,
			OpsPerClient:   *ops,
			ElapsedSeconds: elapsed.Seconds(),
			Throughput:     float64(total) / elapsed.Seconds(),
			Latency:        lat,
			Classes:        classes,
			BusyShed:       shed.Load(),
			NotFound:       misses.Load(),
			TracedOps:      traced.Load(),
			ScanLatency:    scanLat,
			Router:         rs,
		}
		if err := writeBenchJSON(*benchJSON, sum); err != nil {
			fatalf("bench-json: %v", err)
		}
		fmt.Printf("loadgen: wrote bench summary to %s\n", *benchJSON)
	}
	if *spansOut != "" {
		if err := spans.write(*spansOut); err != nil {
			fatalf("spans: %v", err)
		}
		fmt.Printf("loadgen: wrote %d client spans to %s (merge with iotrace -merge)\n", len(spans.spans), *spansOut)
	}

	if *showStats {
		cl, err := server.Dial(*addr)
		if err != nil {
			fatalf("stats dial: %v", err)
		}
		defer cl.Close()
		js, err := cl.Stats()
		if err != nil {
			fatalf("stats: %v", err)
		}
		fmt.Printf("server stats: %s\n", js)
	}
}

// runClient is one closed-loop connection: draw an op, execute it, repeat.
// Shed requests (StatusBusy) are counted and retried in the same slot after
// a jittered backoff — the closed loop plus the backoff is the backpressure.
// With traceEvery > 0 and a connection that can start traces, every Nth op
// carries a fresh trace context and its client-side wall span is logged (a
// retried busy slot mints a fresh context — the shed attempt consumed the
// previous one).
func runClient(id int, dial dialFn, spec workload.KeySpec, stream *workload.Stream, ops int,
	hist *stats.LatencyHist, classHists []*stats.LatencyHist,
	shed, misses *atomic.Int64, traceEvery int, traced *atomic.Int64, spans *spanLog) error {
	cl, closeConn, err := dial()
	if err != nil {
		return err
	}
	defer closeConn()
	local := stats.NewLatencyHist()
	localClass := make([]*stats.LatencyHist, len(classHists))
	for i := range localClass {
		localClass[i] = stats.NewLatencyHist()
	}
	ts, _ := cl.(traceStarter)
	var busyDelay time.Duration
	for i := 0; i < ops; i++ {
		op := stream.Next()
		key := spec.Key(op.ID)
		var tc kv.TraceContext
		if ts != nil && traceEvery > 0 && i%traceEvery == 0 {
			tc = ts.TraceNext()
		}
		t0 := time.Now()
		err := execOp(cl, spec, op, key, misses)
		if errors.Is(err, server.ErrBusy) {
			shed.Add(1)
			busyDelay = nextBusyDelay(busyDelay)
			sleepJittered(busyDelay)
			i-- // retry the slot; closed-loop offered load stays constant
			continue
		}
		if err != nil {
			return fmt.Errorf("%v %q: %w", op.Kind, key, err)
		}
		busyDelay = 0
		wall := time.Since(t0)
		local.Observe(int64(wall))
		localClass[int(op.Kind)].Observe(int64(wall))
		if tc.Valid() {
			traced.Add(1)
			// The context's SpanID names this client-side span on the wire:
			// the server's span links to it, so the merged trace draws the
			// arrow from this span to the server's.
			spans.add(obs.SpanJSON{
				Op:          "client:" + op.Kind.String(),
				Wire:        tc.SpanID,
				TraceID:     tc.TraceID,
				TID:         int64(id),
				WallStartNs: t0.UnixNano(),
				WallEndNs:   t0.Add(wall).UnixNano(),
			})
		}
	}
	hist.Merge(local)
	for i := range localClass {
		classHists[i].Merge(localClass[i])
	}
	return nil
}

// runScanner is one snapshot-scan connection: open a snapshot, page through
// the whole keyspace with SnapScan, release, re-pin, repeat until the OLTP
// side finishes. An expired snapshot (version chains trimmed under write
// pressure) is re-opened, not fatal — exactly what an analytical client
// would do.
func runScanner(addr string, scanLen int, hist *stats.LatencyHist, done <-chan struct{}) (scans, entries int64, err error) {
	cl, err := server.Dial(addr)
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	local := stats.NewLatencyHist()
	defer hist.Merge(local)

	id, _, err := cl.SnapOpen()
	if err != nil {
		return 0, 0, err
	}
	var cursor []byte
	var busyDelay time.Duration
	for {
		select {
		case <-done:
			return scans, entries, cl.SnapRelease(id)
		default:
		}
		t0 := time.Now()
		page, err := cl.SnapScan(id, cursor, nil, scanLen)
		if errors.Is(err, server.ErrBusy) {
			busyDelay = nextBusyDelay(busyDelay)
			sleepJittered(busyDelay)
			continue
		}
		busyDelay = 0
		if errors.Is(err, server.ErrSnapExpired) {
			if id, _, err = cl.SnapOpen(); err != nil {
				return scans, entries, err
			}
			cursor = nil
			continue
		}
		if err != nil {
			return scans, entries, err
		}
		local.Observe(int64(time.Since(t0)))
		scans++
		entries += int64(len(page))
		if len(page) < scanLen {
			// End of keyspace: one full pass done. Re-pin so the next pass
			// sees a fresh consistent world (and the old versions can be
			// reclaimed).
			if err := cl.SnapRelease(id); err != nil {
				return scans, entries, err
			}
			if id, _, err = cl.SnapOpen(); err != nil {
				return scans, entries, err
			}
			cursor = nil
			continue
		}
		last := page[len(page)-1].Key
		cursor = append(append([]byte(nil), last...), 0)
	}
}

// runSnapcheck is the CI smoke probe: pin, write past the pin, and demand
// the stale read.
func runSnapcheck(addr string) error {
	cl, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	key := []byte("snapcheck-key")
	if err := cl.Put(key, []byte("before")); err != nil {
		return fmt.Errorf("seed put: %w", err)
	}
	id, lsn, err := cl.SnapOpen()
	if err != nil {
		return fmt.Errorf("snap open: %w", err)
	}
	if err := cl.Put(key, []byte("after")); err != nil {
		return fmt.Errorf("post-pin put: %w", err)
	}
	v, ok, err := cl.SnapGet(id, key)
	if err != nil {
		return fmt.Errorf("snap get: %w", err)
	}
	if !ok || string(v) != "before" {
		return fmt.Errorf("pinned read at lsn %d returned %q (ok=%v), want the pre-image", lsn, v, ok)
	}
	if v, ok, err := cl.Get(key); err != nil || !ok || string(v) != "after" {
		return fmt.Errorf("live read returned %q (ok=%v, err=%v), want the new value", v, ok, err)
	}
	return cl.SnapRelease(id)
}

func execOp(cl kvConn, spec workload.KeySpec, op workload.Op, key []byte, misses *atomic.Int64) error {
	switch op.Kind {
	case workload.OpGet:
		_, ok, err := cl.Get(key)
		if err == nil && !ok {
			misses.Add(1)
		}
		return err
	case workload.OpPut:
		return cl.Put(key, spec.Value(op.ID))
	case workload.OpDelete:
		_, err := cl.Delete(key)
		return err
	case workload.OpScan:
		_, err := cl.Scan(key, nil, op.Len)
		return err
	case workload.OpUpsert:
		return cl.Upsert(key, 1)
	case workload.OpRMW:
		// Get-then-Put with a data dependency, as in workload.Apply.
		old, ok, err := cl.Get(key)
		if err != nil {
			return err
		}
		next := spec.Value(op.ID)
		if ok && len(old) > 0 && len(next) > 0 {
			next = append([]byte(nil), next...)
			next[0] ^= old[0]
		}
		return cl.Put(key, next)
	default:
		return fmt.Errorf("loadgen: unhandled op %v", op.Kind)
	}
}

// parseMix resolves the -ycsb preset or the -mix weight list (the presets
// follow the YCSB core workloads; update = put).
func parseMix(ycsb, mixFlag string, scanLen int) (workload.Mix, error) {
	if ycsb != "" && mixFlag != "" {
		return workload.Mix{}, errors.New("loadgen: -ycsb and -mix are mutually exclusive")
	}
	switch strings.ToLower(ycsb) {
	case "a":
		return workload.Mix{Gets: 50, Puts: 50}, nil
	case "b":
		return workload.Mix{Gets: 95, Puts: 5}, nil
	case "c":
		return workload.Mix{Gets: 100}, nil
	case "f":
		return workload.Mix{Gets: 50, RMWs: 50}, nil
	case "":
	default:
		return workload.Mix{}, fmt.Errorf("loadgen: unknown YCSB preset %q (want a, b, c, or f)", ycsb)
	}
	if mixFlag == "" {
		return workload.Mix{Gets: 95, Puts: 5}, nil // default: YCSB B
	}
	mix := workload.Mix{ScanLen: scanLen}
	for _, part := range strings.Split(mixFlag, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return mix, fmt.Errorf("loadgen: bad mix element %q (want op=weight)", part)
		}
		w, err := strconv.Atoi(kv[1])
		if err != nil || w < 0 {
			return mix, fmt.Errorf("loadgen: bad weight in %q", part)
		}
		switch kv[0] {
		case "get":
			mix.Gets = w
		case "put":
			mix.Puts = w
		case "delete":
			mix.Deletes = w
		case "scan":
			mix.Scans = w
		case "upsert":
			mix.Upserts = w
		case "rmw":
			mix.RMWs = w
		default:
			return mix, fmt.Errorf("loadgen: unknown op %q in mix", kv[0])
		}
	}
	return mix, nil
}

// verifySummary is the acked-write audit's result, printed and exported via
// -bench-json.
type verifySummary struct {
	Acked          int     `json:"acked"`
	Rejected       int64   `json:"rejected"`
	BusyShed       int64   `json:"busy_shed"`
	LostAcks       int     `json:"lost_acks"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	OK             bool    `json:"ok"`
}

// runVerify is the acked-write audit used by the failover smoke test: every
// client writes its own unique key sequence and records exactly the Puts the
// server acknowledged. Write errors during the run are tolerated (a failover
// window rejects a few ops) and counted, but never recorded as acked. At the
// end, a fresh connection reads every acked key back; one miss is a lost
// acknowledged write and fails the run.
func runVerify(dial dialFn, clients, ops int) (verifySummary, error) {
	type clientResult struct {
		acked []int // op indices whose Put was acknowledged
		err   error // connection-level failure (dial), not per-op
	}
	// Keys stay within workload.DefaultSpec's 16-byte key limit.
	value := func(c, i int) []byte { return []byte(fmt.Sprintf("v-%03d-%08d", c, i)) }
	key := func(c, i int) []byte { return []byte(fmt.Sprintf("vf-%03d-%08d", c, i)) }

	start := time.Now()
	results := make([]clientResult, clients)
	var rejected atomic.Int64
	var shed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, closeConn, err := dial()
			if err != nil {
				results[c].err = err
				return
			}
			defer closeConn()
			var busyDelay time.Duration
			for i := 0; i < ops; i++ {
				err := conn.Put(key(c, i), value(c, i))
				switch {
				case err == nil:
					busyDelay = 0
					results[c].acked = append(results[c].acked, i)
				case errors.Is(err, server.ErrBusy):
					shed.Add(1)
					busyDelay = nextBusyDelay(busyDelay)
					sleepJittered(busyDelay)
					i-- // retry the slot
				default:
					// Failover window: the op was NOT acknowledged, so it is
					// allowed to be lost. Brief pause, move on.
					rejected.Add(1)
					sleepJittered(busyMax)
				}
			}
		}(c)
	}
	wg.Wait()
	for c := range results {
		if results[c].err != nil {
			return verifySummary{}, fmt.Errorf("verify client %d: %v", c, results[c].err)
		}
	}

	// Read-back on a fresh connection: acked writes must all be there, no
	// matter which node now serves the shard.
	conn, closeConn, err := dial()
	if err != nil {
		return verifySummary{}, fmt.Errorf("verify read-back dial: %v", err)
	}
	defer closeConn()
	acked, lost := 0, 0
	var busyDelay time.Duration
	for c := range results {
		for _, i := range results[c].acked {
			acked++
			for {
				v, ok, err := conn.Get(key(c, i))
				if errors.Is(err, server.ErrBusy) {
					busyDelay = nextBusyDelay(busyDelay)
					sleepJittered(busyDelay)
					continue
				}
				busyDelay = 0
				if err != nil {
					return verifySummary{}, fmt.Errorf("verify read-back %s: %v", key(c, i), err)
				}
				if !ok || string(v) != string(value(c, i)) {
					fmt.Printf("verify: LOST acked write %s (ok=%v, value=%q)\n", key(c, i), ok, v)
					lost++
				}
				break
			}
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("verify: %d clients x %d ops in %.2fs: %d acked, %d rejected, busy(shed)=%d, %d lost acks\n",
		clients, ops, elapsed.Seconds(), acked, rejected.Load(), shed.Load(), lost)
	sum := verifySummary{
		Acked:          acked,
		Rejected:       rejected.Load(),
		BusyShed:       shed.Load(),
		LostAcks:       lost,
		ElapsedSeconds: elapsed.Seconds(),
		OK:             lost == 0,
	}
	if lost > 0 {
		return sum, fmt.Errorf("%d acknowledged writes lost", lost)
	}
	return sum, nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}

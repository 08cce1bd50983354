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
// Every client population here — the point clients, the scanners, and both
// phases of -verify — is dialed and driven by internal/closedloop, the one
// closed-loop driver: a busy (shed) reply is retried in the same op slot
// after its one capped, jittered backoff, and counted. loadgen reports
// aggregate throughput, wall-clock latency percentiles (per op kind, merged
// across clients), busy (shed) counts, and — with -stats — the server's own
// snapshot afterwards.
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
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iomodels/internal/closedloop"
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

// dialFn opens client i's connection (a single-node client or a per-client
// router) and returns it with its closer, as closedloop.Dial asks.
type dialFn func(i int) (kvConn, func(), error)

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
	traceEvery := flag.Int("trace-every", 0, "stamp every Nth op with a trace context the server continues (single-node only; 0: off)")
	spansOut := flag.String("spans-out", "", "write client-side spans of traced ops here (JSON, for iotrace -merge)")
	flag.Parse()

	dial := dialFn(func(int) (kvConn, func(), error) {
		cl, err := server.Dial(*addr)
		if err != nil {
			return nil, nil, err
		}
		return cl, func() { cl.Close() }, nil
	})
	// In cluster mode every client builds its own router; keep them all so
	// the failover counters can be summed after the run. (closedloop.Dial
	// calls dial from its caller's goroutine, one client at a time.)
	var routers []*cluster.Router
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
		dial = func(int) (kvConn, func(), error) {
			r, err := cluster.NewRouter(cluster.RouterConfig{Shards: specs})
			if err != nil {
				return nil, nil, err
			}
			routers = append(routers, r)
			return r, r.Close, nil
		}
	}
	printRouters := func() {
		var sum cluster.RouterStats
		for _, r := range routers {
			rs := r.Stats()
			sum.Failovers += rs.Failovers
			sum.Probes += rs.Probes
			sum.Promotes += rs.Promotes
		}
		if len(routers) > 0 {
			fmt.Printf("router: failovers=%d probes=%d promotes=%d\n", sum.Failovers, sum.Probes, sum.Promotes)
		}
	}

	if *verify {
		err := runVerify(dial, *clients, *ops)
		printRouters()
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
	streams := make([]*workload.Stream, *clients)
	for c := range streams {
		streams[c] = workload.NewStream(spec, *seed+uint64(c), *keys, mix, *theta)
	}
	var misses, traced atomic.Int64
	spans := &spanLog{}
	// op fills client c's slot j with the next op of c's stream (a shed
	// slot's retry draws afresh, as loadgen always has); its class is the
	// op's kind. With -trace-every N, every Nth op of a single-node
	// client carries a fresh trace context and its client-side wall span is
	// logged (a retried busy op mints a fresh context — the shed attempt
	// consumed the previous one). A router cannot start traces: that would
	// need the routed shard's connection, so -trace-every is single-node
	// only.
	op := func(cl kvConn, c, j int) (int, error) {
		op := streams[c].Next()
		key := spec.Key(op.ID)
		var tc kv.TraceContext
		if sc, ok := cl.(*server.Client); ok && *traceEvery > 0 && j%*traceEvery == 0 {
			tc = sc.TraceNext()
		}
		t0 := time.Now()
		if err := execOp(cl, spec, op, key, &misses); err != nil {
			return 0, fmt.Errorf("%v %q: %w", op.Kind, key, err)
		}
		if tc.Valid() {
			traced.Add(1)
			// The context's SpanID names this client-side span on the wire:
			// the server's span links to it, so the merged trace draws the
			// arrow from this span to the server's.
			spans.add(obs.SpanJSON{
				Op:          "client:" + op.Kind.String(),
				Wire:        tc.SpanID,
				TraceID:     tc.TraceID,
				TID:         int64(c),
				WallStartNs: t0.UnixNano(),
				WallEndNs:   time.Now().UnixNano(),
			})
		}
		return int(op.Kind), nil
	}

	start := time.Now()
	cs, err := closedloop.Dial(*clients, dial)
	if err != nil {
		fatalf("%v", err)
	}
	defer cs.Close()

	// Scan-beside-OLTP: the scanners run until the point clients finish.
	oltpDone := make(chan struct{})
	var res closedloop.Result
	go func() {
		defer close(oltpDone)
		res, err = cs.Run(*ops, nil, op)
	}()
	var scanned atomic.Int64
	scans, scanErr := runScanners(*addr, *scanners, *scanLen, oltpDone, &scanned)
	<-oltpDone
	if err != nil {
		fatalf("%v", err)
	}
	if scanErr != nil {
		fatalf("scanner: %v", scanErr)
	}
	elapsed := time.Since(start)

	all := stats.NewLatencyHist()
	var parts []string
	for k, h := range res.Hists {
		all.Merge(h)
		if n := h.Count(); n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", workload.OpKind(k), n))
		}
	}
	lat := all.Snapshot().Micros()
	fmt.Printf("loadgen: %d clients x %d ops in %.2fs = %.0f ops/s\n",
		*clients, *ops, elapsed.Seconds(), float64(*clients)*float64(*ops)/elapsed.Seconds())
	fmt.Printf("latency µs: mean=%.0f p50=%.0f p95=%.0f p99=%.0f max=%.0f\n",
		lat.MeanUs, lat.P50Us, lat.P95Us, lat.P99Us, lat.MaxUs)
	fmt.Printf("ops: %s; busy(shed)=%d not_found=%d\n", strings.Join(parts, " "), res.Shed, misses.Load())
	if *traceEvery > 0 {
		fmt.Printf("traced: %d ops carried a trace context (every %d)\n", traced.Load(), *traceEvery)
	}
	if *scanners > 0 {
		l := scans.Hist(scanPage).Snapshot().Micros()
		fmt.Printf("snapshot scans: %d scanners, %d scans (%d entries), busy(shed)=%d\n",
			*scanners, l.Count, scanned.Load(), scans.Shed)
		fmt.Printf("scan latency µs: mean=%.0f p50=%.0f p95=%.0f p99=%.0f max=%.0f\n",
			l.MeanUs, l.P50Us, l.P95Us, l.P99Us, l.MaxUs)
	}
	printRouters()
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

// A scanner's op classes: a page of a snapshot scan, or a snapshot pinned or
// released.
const (
	scanPage = iota
	scanPin
)

// scanner is one snapshot-scan connection: it pins a snapshot, pages through
// the whole keyspace with SnapScan, releases, re-pins, and repeats until the
// OLTP side finishes. An expired snapshot (version chains trimmed under write
// pressure) is re-pinned, not fatal — exactly what an analytical client
// would do.
type scanner struct {
	*server.Client
	snap   uint64 // the pinned snapshot, 0 if none is
	cursor []byte // where the pass's next page starts; nil: re-pin first
}

// next is the scanner's next op: a page, or a re-pin between two passes.
func (s *scanner) next(limit int, entries *atomic.Int64) (int, error) {
	if s.cursor == nil {
		// Release the finished pass's snapshot, so its old versions can be
		// reclaimed, and pin a fresh consistent world for the next pass. A
		// refused open leaves snap 0, so its retry does not release again.
		if s.snap != 0 {
			if err := s.SnapRelease(s.snap); err != nil {
				return scanPin, err
			}
		}
		var err error
		if s.snap, _, err = s.SnapOpen(); err == nil {
			s.cursor = []byte{}
		}
		return scanPin, err
	}
	page, err := s.SnapScan(s.snap, s.cursor, nil, limit)
	if errors.Is(err, server.ErrSnapExpired) {
		s.snap, s.cursor = 0, nil
		return scanPin, nil
	}
	if err != nil {
		return scanPage, err
	}
	entries.Add(int64(len(page)))
	s.cursor = nil // a short page ends the keyspace: one full pass done
	if len(page) == limit {
		s.cursor = append(append([]byte(nil), page[len(page)-1].Key...), 0)
	}
	return scanPage, nil
}

// runScanners runs k scanners against addr until done closes. Its result's
// scanPage class is the scan latency. Closing a connection releases the
// snapshot it holds.
func runScanners(addr string, k, limit int, done <-chan struct{}, entries *atomic.Int64) (closedloop.Result, error) {
	sc, err := closedloop.Dial(k, func(int) (*scanner, func(), error) {
		cl, err := server.Dial(addr)
		if err != nil {
			return nil, nil, err
		}
		return &scanner{Client: cl}, func() { cl.Close() }, nil
	})
	if err != nil {
		return closedloop.Result{}, err
	}
	defer sc.Close()
	return sc.Run(-1, done, func(s *scanner, _, _ int) (int, error) { return s.next(limit, entries) })
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

// ycsbPresets are the -ycsb mixes, after the YCSB core workloads (update =
// put).
var ycsbPresets = map[string]workload.Mix{
	"a": {Gets: 50, Puts: 50},
	"b": {Gets: 95, Puts: 5},
	"c": {Gets: 100},
	"f": {Gets: 50, RMWs: 50},
}

// parseMix resolves the -ycsb preset or the -mix weight list.
func parseMix(ycsb, mixFlag string, scanLen int) (workload.Mix, error) {
	switch {
	case ycsb != "" && mixFlag != "":
		return workload.Mix{}, errors.New("loadgen: -ycsb and -mix are mutually exclusive")
	case ycsb != "":
		mix, ok := ycsbPresets[strings.ToLower(ycsb)]
		if !ok {
			return mix, fmt.Errorf("loadgen: unknown YCSB preset %q (want a, b, c, or f)", ycsb)
		}
		return mix, nil
	case mixFlag == "":
		return ycsbPresets["b"], nil // default: YCSB B
	}
	mix := workload.Mix{ScanLen: scanLen}
	weights := map[string]*int{"get": &mix.Gets, "put": &mix.Puts, "delete": &mix.Deletes,
		"scan": &mix.Scans, "upsert": &mix.Upserts, "rmw": &mix.RMWs}
	for _, part := range strings.Split(mixFlag, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return mix, fmt.Errorf("loadgen: bad mix element %q (want op=weight)", part)
		}
		w, err := strconv.Atoi(kv[1])
		if err != nil || w < 0 {
			return mix, fmt.Errorf("loadgen: bad weight in %q", part)
		}
		weight, ok := weights[kv[0]]
		if !ok {
			return mix, fmt.Errorf("loadgen: unknown op %q in mix", kv[0])
		}
		*weight = w
	}
	return mix, nil
}

// runVerify is the acked-write audit used by the failover smoke test: every
// client writes its own unique key sequence and records exactly the Puts the
// server acknowledged. Write errors during the run are tolerated (a failover
// window rejects a few ops) and counted, but never recorded as acked. At the
// end, a fresh connection reads every acked key back; one miss is a lost
// acknowledged write and fails the run.
func runVerify(dial dialFn, clients, ops int) error {
	// Write w is client w/ops's op w%ops. Keys stay within
	// workload.DefaultSpec's 16-byte key limit.
	value := func(w int) []byte { return []byte(fmt.Sprintf("v-%03d-%08d", w/ops, w%ops)) }
	key := func(w int) []byte { return []byte(fmt.Sprintf("vf-%03d-%08d", w/ops, w%ops)) }

	start := time.Now()
	cs, err := closedloop.Dial(clients, dial)
	if err != nil {
		return fmt.Errorf("verify dial: %v", err)
	}
	acked := make([]bool, clients*ops)
	var nacked, rejected atomic.Int64
	puts, err := cs.Run(ops, nil, func(conn kvConn, c, i int) (int, error) {
		w := c*ops + i
		err := conn.Put(key(w), value(w))
		switch {
		case err == nil:
			acked[w] = true
			nacked.Add(1)
		case closedloop.Busy(err):
			return 0, err
		default:
			// Failover window: the op was NOT acknowledged, so it is
			// allowed to be lost. Pause for the busy backoff's cap, move on.
			rejected.Add(1)
			time.Sleep(closedloop.MaxBackoff)
		}
		return 0, nil
	})
	cs.Close()
	if err != nil {
		return err
	}

	// Read-back on a fresh connection: acked writes must all be there, no
	// matter which node now serves the shard.
	rb, err := closedloop.Dial(1, dial)
	if err != nil {
		return fmt.Errorf("verify read-back dial: %v", err)
	}
	defer rb.Close()
	lost := 0
	gets, err := rb.Run(len(acked), nil, func(conn kvConn, _, w int) (int, error) {
		if !acked[w] {
			return 0, nil
		}
		v, ok, err := conn.Get(key(w))
		if err != nil {
			return 0, fmt.Errorf("verify read-back %s: %w", key(w), err)
		}
		if !ok || string(v) != string(value(w)) {
			fmt.Printf("verify: LOST acked write %s (ok=%v, value=%q)\n", key(w), ok, v)
			lost++
		}
		return 0, nil
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("verify: %d clients x %d ops in %.2fs: %d acked, %d rejected, busy(shed)=%d, %d lost acks\n",
		clients, ops, elapsed.Seconds(), nacked.Load(), rejected.Load(), puts.Shed+gets.Shed, lost)
	if lost > 0 {
		return fmt.Errorf("%d acknowledged writes lost", lost)
	}
	return nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}

// Cluster tests: ring determinism and balance, multi-shard routing, the
// replica write fence, WAL shipping end to end over the wire, and the
// centerpiece — kill the primary mid-load and check that failover promotes
// the replica with every acknowledged write intact (the sync-ship
// contract), with all nodes running on storage.FaultStore images.

package cluster_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iomodels/internal/cluster"
	"iomodels/internal/engine"
	"iomodels/internal/kv"
	"iomodels/internal/node"
	"iomodels/internal/obs"
	"iomodels/internal/server"
	"iomodels/internal/sim"
	"iomodels/internal/storage"
	"iomodels/internal/workload"
)

// flatDev is a stateless 50µs-per-IO timing device.
type flatDev struct{ capacity int64 }

func (d flatDev) Access(now sim.Time, _ storage.Op, _, _ int64) sim.Time {
	return now + 50*sim.Microsecond
}
func (d flatDev) Capacity() int64 { return d.capacity }
func (d flatDev) Name() string    { return "flat" }

// clientOpts keeps test round trips snappy: a dead node is detected in
// 500ms, not the 5s default.
func clientOpts() server.Options {
	return server.Options{RequestTimeout: 500 * time.Millisecond, ConnectTimeout: time.Second}
}

// testSpec is the Spec every cluster test boots: a durable, shipping-enabled
// B-tree server on a FaultStore image over the flat device.
func testSpec(shardID, shards int, role server.Role) node.Spec {
	return node.Spec{
		Store:      storage.NewFaultStore(flatDev{256 << 20}),
		CacheBytes: 1 << 20,
		Tree:       "btree",
		NodeBytes:  4 << 10,
		Keys:       workload.KeySpec{KeyBytes: 64, ValueBytes: 256},
		Durability: &engine.DurabilityConfig{LogBytes: 8 << 20, GroupBytes: 1 << 20, JournalBytes: 4 << 20},
		Server: server.Config{
			Addr:            "127.0.0.1:0",
			ShardID:         shardID,
			Shards:          shards,
			Role:            role,
			SyncShipTimeout: 5 * time.Second,
		},
	}
}

// startNode boots spec and closes the node when the test ends (a second
// Close after a test's own kill is safe).
func startNode(t *testing.T, spec node.Spec) *node.Node {
	t.Helper()
	n, err := node.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// newNode boots a testSpec node. A replica node gets its shipper started
// against primaryAddr.
func newNode(t *testing.T, shardID, shards int, role server.Role, syncShip bool, primaryAddr string) *node.Node {
	t.Helper()
	return newTracedNode(t, shardID, shards, role, syncShip, primaryAddr, nil)
}

// newTracedNode is newNode with a span tracer attached to the server (nil
// for none) — the merged-trace test wants per-node tracers it can export.
func newTracedNode(t *testing.T, shardID, shards int, role server.Role, syncShip bool, primaryAddr string, tracer *obs.Tracer) *node.Node {
	t.Helper()
	spec := testSpec(shardID, shards, role)
	spec.Server.SyncShip = syncShip
	spec.Server.Tracer = tracer
	spec.Shipper = cluster.ShipperConfig{
		Primary:  primaryAddr,
		Opts:     clientOpts(),
		Interval: time.Millisecond,
		Logf:     t.Logf,
	}
	return startNode(t, spec)
}

func ckey(i int) []byte { return []byte(fmt.Sprintf("ckey-%06d", i)) }
func cval(i int) []byte { return []byte(fmt.Sprintf("cval-%08d", i)) }

func TestRingDeterministicAndBalanced(t *testing.T) {
	a, b := cluster.NewRing(4), cluster.NewRing(4)
	counts := make([]int, 4)
	for i := 0; i < 10000; i++ {
		k := ckey(i)
		sa, sb := a.Shard(k), b.Shard(k)
		if sa != sb {
			t.Fatalf("ring disagrees with itself on %q: %d vs %d", k, sa, sb)
		}
		counts[sa]++
	}
	for s, c := range counts {
		if c < 1000 { // < 10% of a fair 25% share is pathological
			t.Fatalf("shard %d got %d of 10000 keys: %v", s, c, counts)
		}
	}
}

func TestRouterShardsPointOpsAndMergesScans(t *testing.T) {
	n0 := newNode(t, 0, 2, server.RolePrimary, false, "")
	n1 := newNode(t, 1, 2, server.RolePrimary, false, "")
	r, err := cluster.NewRouter(cluster.RouterConfig{
		Shards: []cluster.ShardSpec{{Primary: n0.Addr}, {Primary: n1.Addr}},
		Opts:   clientOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const n = 200
	perShard := make([]int, 2)
	for i := 0; i < n; i++ {
		if err := r.Put(ckey(i), cval(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		perShard[r.ShardFor(ckey(i))]++
	}
	if perShard[0] == 0 || perShard[1] == 0 {
		t.Fatalf("keys did not split across shards: %v", perShard)
	}
	for i := 0; i < n; i += 17 {
		v, ok, err := r.Get(ckey(i))
		if err != nil || !ok || !bytes.Equal(v, cval(i)) {
			t.Fatalf("get %d: %q,%v,%v", i, v, ok, err)
		}
	}
	// The fan-out scan merges both shards' runs back into one sorted range.
	entries, err := r.Scan(nil, nil, n+10)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != n {
		t.Fatalf("scan returned %d entries, want %d", len(entries), n)
	}
	for i, e := range entries {
		if !bytes.Equal(e.Key, ckey(i)) {
			t.Fatalf("scan entry %d is %q, want %q (merge order broken)", i, e.Key, ckey(i))
		}
	}
	// Deletes route like puts.
	if ok, err := r.Delete(ckey(3)); err != nil || !ok {
		t.Fatalf("delete: %v,%v", ok, err)
	}
	if _, ok, _ := r.Get(ckey(3)); ok {
		t.Fatal("deleted key still readable")
	}
}

func TestReplicaRefusesWritesUntilPromoted(t *testing.T) {
	p := newNode(t, 0, 1, server.RolePrimary, false, "")
	rep := newNode(t, 0, 1, server.RoleReplica, false, p.Addr)

	c, err := server.DialOpts(rep.Addr, clientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put([]byte("k"), []byte("v")); !errors.Is(err, server.ErrNotPrimary) {
		t.Fatalf("replica accepted a write: %v", err)
	}
	info, err := c.Hello()
	if err != nil || info.Role != server.RoleReplica || info.ShardID != 0 {
		t.Fatalf("hello = %+v, %v", info, err)
	}
	if _, err := c.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if _, err := c.Promote(); err != nil {
		t.Fatalf("second promote not idempotent: %v", err)
	}
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("promoted node refused a write: %v", err)
	}
	info, err = c.Hello()
	if err != nil || info.Role != server.RolePrimary {
		t.Fatalf("post-promote hello = %+v, %v", info, err)
	}
}

func TestWALShippingReplicatesOverTheWire(t *testing.T) {
	p := newNode(t, 0, 1, server.RolePrimary, false, "")
	rep := newNode(t, 0, 1, server.RoleReplica, false, p.Addr)

	c, err := server.DialOpts(p.Addr, clientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 150
	for i := 0; i < n; i++ {
		if err := c.Put(ckey(i), cval(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 10 {
		if _, err := c.Delete(ckey(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the shipper to drain the stream.
	target := p.Srv.Snapshot().ShipCommitted
	deadline := time.Now().Add(10 * time.Second)
	for int64(rep.Shipper.Cursor()) < target {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at cursor %d of %d (shipper err: %v)",
				rep.Shipper.Cursor(), target, rep.Shipper.Err())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Reads on the replica (reads are allowed; only writes are fenced) see
	// the primary's state.
	rc, err := server.DialOpts(rep.Addr, clientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for i := 0; i < n; i++ {
		v, ok, err := rc.Get(ckey(i))
		if err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if ok {
				t.Fatalf("key %d: deleted on primary, alive on replica", i)
			}
			continue
		}
		if !ok || !bytes.Equal(v, cval(i)) {
			t.Fatalf("key %d: replica has %q,%v", i, v, ok)
		}
	}
	// The primary's stats surface the stream positions.
	snap := p.Srv.Snapshot()
	if !snap.ShipEnabled || snap.ShipPulls == 0 || snap.ShipRecords == 0 {
		t.Fatalf("primary ship stats: %+v", snap)
	}
	if snap.ShipAckedLSN == 0 {
		t.Fatal("replica pulls never acknowledged a position")
	}
}

// TestFailoverKeepsEveryAcknowledgedWrite is the acceptance test: a writer
// streams keys through the router while the shard-0 primary is killed; the
// router must promote the replica and every write acknowledged BEFORE or
// AFTER the kill must be readable from the surviving cluster. Sync-ship
// makes the guarantee exact: a write is only acked once a replica pull
// covers it.
func TestFailoverKeepsEveryAcknowledgedWrite(t *testing.T) {
	p := newNode(t, 0, 2, server.RolePrimary, true, "")
	rep := newNode(t, 0, 2, server.RoleReplica, false, p.Addr)
	n1 := newNode(t, 1, 2, server.RolePrimary, false, "")

	r, err := cluster.NewRouter(cluster.RouterConfig{
		Shards: []cluster.ShardSpec{
			{Primary: p.Addr, Replicas: []string{rep.Addr}},
			{Primary: n1.Addr},
		},
		Opts: clientOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const total = 240
	const killAt = 80
	var mu sync.Mutex
	acked := make(map[int]bool)

	killed := make(chan struct{})
	go func() {
		// Kill the shard-0 primary once the writer is known to be mid-load.
		for {
			mu.Lock()
			n := len(acked)
			mu.Unlock()
			if n >= killAt {
				break
			}
			time.Sleep(time.Millisecond)
		}
		p.Close()
		close(killed)
	}()

	for i := 0; i < total; i++ {
		if err := r.Put(ckey(i), cval(i)); err != nil {
			// Un-acked: the failover window may reject a write (e.g. the
			// primary died after applying but before the replica ack). The
			// contract is only about acknowledged writes.
			t.Logf("put %d not acked: %v", i, err)
			continue
		}
		mu.Lock()
		acked[i] = true
		mu.Unlock()
	}
	<-killed

	if r.Failovers() == 0 {
		t.Fatal("primary was killed but the router never failed over")
	}
	// The replica must now be the shard-0 primary.
	rc, err := server.DialOpts(rep.Addr, clientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if info, err := rc.Hello(); err != nil || info.Role != server.RolePrimary {
		t.Fatalf("replica after failover: %+v, %v", info, err)
	}

	// Every acknowledged write must be readable through the router.
	lost := 0
	for i := 0; i < total; i++ {
		mu.Lock()
		wasAcked := acked[i]
		mu.Unlock()
		if !wasAcked {
			continue
		}
		v, ok, err := r.Get(ckey(i))
		if err != nil {
			t.Fatalf("get %d after failover: %v", i, err)
		}
		if !ok || !bytes.Equal(v, cval(i)) {
			t.Errorf("ACKED WRITE LOST: key %d (%q,%v)", i, v, ok)
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d acknowledged writes lost across failover", lost)
	}
	t.Logf("failover kept all %d acked writes (%d failovers)", len(acked), r.Failovers())
}

// TestShipperGapForcesRebootstrap: a replica that falls behind a trimmed
// ring gets a terminal gap error, not silent divergence.
func TestShipperGapForcesRebootstrap(t *testing.T) {
	// A tiny ship ring on the primary.
	spec := testSpec(0, 1, server.RolePrimary)
	spec.ShipCap = 8
	p := startNode(t, spec)

	c, err := server.DialOpts(p.Addr, clientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		if err := c.Put(ckey(i), cval(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Position 0 is far behind an 8-record ring.
	if _, _, _, err := c.ShipPull(0, 100); !errors.Is(err, server.ErrShipGap) {
		t.Fatalf("ShipPull(0) = %v, want ErrShipGap", err)
	}
	// Pulled records decode with their primary seqs intact.
	recs, committed, floor, err := c.ShipPull(uint64(50-8), 100)
	if err != nil {
		t.Fatal(err)
	}
	if committed == 0 || floor != uint64(50-8) || len(recs) != 8 {
		t.Fatalf("pull = %d recs, committed %d, floor %d", len(recs), committed, floor)
	}
	for _, rec := range recs {
		if rec.Kind != kv.Put || len(rec.Key) == 0 {
			t.Fatalf("bad shipped record: %+v", rec)
		}
	}
}

// TestMergedTraceSpansCluster is the observability acceptance test: a
// traced client write against a shipping primary must render, after
// merging the client's, primary's, and replica's span dumps, as ONE
// causally-linked timeline — client span → primary request span →
// primary group-commit span, and the shipped record's stamp continuing
// the same trace onto the replica's commit span. Wall time is injected
// (a shared monotonic counter), so the test is deterministic and the
// export path (which drops unstamped spans) is exercised for real.
func TestMergedTraceSpansCluster(t *testing.T) {
	var wall atomic.Int64
	wall.Store(1_000_000_000) // a nonzero epoch; each read ticks 1µs
	wallNow := func() int64 { return wall.Add(1000) }
	tracerFor := func(tag uint64) *obs.Tracer {
		return obs.NewTracer(obs.Config{SampleEvery: 1, WallNow: wallNow, WireTag: tag})
	}
	pTracer := tracerFor(0xA11CE)
	rTracer := tracerFor(0xB0B)
	p := newTracedNode(t, 0, 1, server.RolePrimary, false, "", pTracer)
	rep := newTracedNode(t, 0, 1, server.RoleReplica, false, p.Addr, rTracer)

	c, err := server.DialOpts(p.Addr, clientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tc := c.TraceNext()
	if !tc.Valid() || !tc.Sampled() {
		t.Fatalf("TraceNext returned %+v", tc)
	}
	clientStart := wallNow()
	if err := c.Put(ckey(1), cval(1)); err != nil {
		t.Fatal(err)
	}
	clientEnd := wallNow()

	// Wait for the shipper to apply the traced write on the replica.
	target := p.Srv.Snapshot().ShipCommitted
	deadline := time.Now().Add(10 * time.Second)
	for int64(rep.Shipper.Cursor()) < target {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at cursor %d of %d (shipper err: %v)",
				rep.Shipper.Cursor(), target, rep.Shipper.Err())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The client's own span, stamped from the same wall counter, wired with
	// the span id the trace context named — exactly what loadgen -spans-out
	// records.
	clientSpans := []obs.SpanJSON{{
		Op: "client:put", Wire: tc.SpanID, TraceID: tc.TraceID,
		TID: 1, WallStartNs: clientStart, WallEndNs: clientEnd,
	}}
	pSpans := pTracer.ExportSpans()
	rSpans := rTracer.ExportSpans()
	if len(pSpans) == 0 || len(rSpans) == 0 {
		t.Fatalf("empty span dumps: primary %d, replica %d", len(pSpans), len(rSpans))
	}

	// Walk the chain in the raw dumps first.
	find := func(spans []obs.SpanJSON, op string, parent uint64) *obs.SpanJSON {
		for i := range spans {
			if spans[i].Op != op || spans[i].TraceID != tc.TraceID {
				continue
			}
			for _, l := range spans[i].Links {
				if l.SpanID == parent && l.TraceID == tc.TraceID {
					return &spans[i]
				}
			}
		}
		return nil
	}
	pPut := find(pSpans, "put", tc.SpanID)
	if pPut == nil {
		t.Fatalf("primary has no put span linked to the client context %x/%x", tc.TraceID, tc.SpanID)
	}
	pCommit := find(pSpans, "commit", pPut.Wire)
	if pCommit == nil {
		t.Fatalf("primary has no commit span linked under put span %x", pPut.Wire)
	}
	rCommit := find(rSpans, "commit", pPut.Wire)
	if rCommit == nil {
		t.Fatalf("replica has no commit span continuing primary span %x (trace %x)", pPut.Wire, tc.TraceID)
	}

	// Merge the three dumps and check the rendered trace carries the same
	// story: three named processes and flow arrows crossing both process
	// boundaries.
	var buf bytes.Buffer
	if err := obs.WriteMergedChromeTrace(&buf, []obs.ProcSpans{
		{Name: "client", Spans: clientSpans},
		{Name: "primary", Spans: pSpans},
		{Name: "replica", Spans: rSpans},
	}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			ID   int    `json:"id"`
			Pid  int    `json:"pid"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	procs := map[int]string{}
	flowSrc := map[int]int{} // flow id -> source pid
	crossings := map[[2]int]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				procs[ev.Pid] = ev.Args.Name
			}
		case "s":
			flowSrc[ev.ID] = ev.Pid
		case "f":
			if src, ok := flowSrc[ev.ID]; ok && src != ev.Pid {
				crossings[[2]int{src, ev.Pid}] = true
			}
		}
	}
	if procs[1] != "client" || procs[2] != "primary" || procs[3] != "replica" {
		t.Fatalf("process rows: %v", procs)
	}
	if !crossings[[2]int{1, 2}] {
		t.Error("no flow arrow from the client process into the primary")
	}
	if !crossings[[2]int{2, 3}] {
		t.Error("no flow arrow from the primary process into the replica")
	}
}

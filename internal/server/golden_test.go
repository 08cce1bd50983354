// Golden surface tests: the exact reply bytes of every op and status, the
// /stats JSON key set and the /metrics family set, pinned in testdata/ so a
// refactor of the request path can be checked against the bytes the previous
// one produced. They speak raw frames and read Snapshot()/writeProm — nothing
// a refactor of the reply-building code is expected to rename — and are
// regenerated with `go test ./internal/server -run Golden -update`.

package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"iomodels/internal/kv"
	"iomodels/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares got with testdata/<name> (or rewrites it under -update).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got  %s\n want %s", name, i+1, g, w)
		}
	}
}

// wireLog accumulates `case<TAB>hex` lines, in the order the cases ran.
type wireLog struct {
	t     *testing.T
	lines []string
}

func (l *wireLog) record(name string, reply []byte) {
	l.lines = append(l.lines, name+"\t"+hex.EncodeToString(reply))
}

// rawConnT opens a raw TCP connection and proves the handler is up (the
// handler takes the state read-lock once to build its session, so cases that
// wedge that lock must connect first).
func rawConnT(t *testing.T, tb *testBackend) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", tb.addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if reply := exchange(t, conn, encodeRequest(request{op: OpPing})); len(reply) != 1 {
		t.Fatalf("ping reply %x", reply)
	}
	return conn
}

// exchange writes one request payload and returns the raw reply payload.
func exchange(t *testing.T, conn net.Conn, payload []byte) []byte {
	t.Helper()
	if err := writeFrame(conn, payload); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	reply, err := readFrame(conn, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

// do runs one request on conn and records its reply under name.
func (l *wireLog) do(conn net.Conn, name string, req request) []byte {
	l.t.Helper()
	reply := exchange(l.t, conn, encodeRequest(req))
	l.record(name, reply)
	return reply
}

// maskShipStamps zeroes the commit wall-clock stamp of every record in a
// stamped ShipPull reply (the only nondeterministic bytes on the wire) by
// walking the documented layout: u8 status, u64 committed, u64 floor, u32 n,
// n × (u8 kind, u64 seq, bytes key, bytes value, u64 wallNs, u64 trace, u64 span).
func maskShipStamps(t *testing.T, reply []byte) []byte {
	t.Helper()
	out := append([]byte(nil), reply...)
	off := 1 + 8 + 8
	n := int(binary.BigEndian.Uint32(out[off:]))
	off += 4
	for i := 0; i < n; i++ {
		off += 1 + 8
		for f := 0; f < 2; f++ {
			off += 4 + int(binary.BigEndian.Uint32(out[off:]))
		}
		copy(out[off:off+8], make([]byte, 8))
		off += 24
	}
	if off != len(out) {
		t.Fatalf("stamped ship reply: walked %d of %d bytes", off, len(out))
	}
	return out
}

func TestGoldenWire(t *testing.T) {
	log := &wireLog{t: t}

	// A solo durable node with shipping on: the data, snapshot and ship ops.
	solo := newTestServer(t, Config{}, flatDev{64 << 20}, true, 1<<20, 8)
	if err := solo.eng.EnableShipping(0); err != nil {
		t.Fatal(err)
	}
	c := rawConnT(t, solo)
	log.do(c, "ping", request{op: OpPing})
	log.do(c, "get-hit", request{op: OpGet, key: tkey(3)})
	log.do(c, "get-miss", request{op: OpGet, key: []byte("nope")})
	log.do(c, "put", request{op: OpPut, key: tkey(100), value: []byte("v100")})
	log.do(c, "upsert", request{op: OpUpsert, key: []byte("ctr"), delta: 5})
	log.do(c, "scan-0", request{op: OpScan, lo: []byte("zzz"), limit: 5})
	log.do(c, "scan-2", request{op: OpScan, lo: tkey(1), hi: tkey(3), limit: 10})
	log.do(c, "scan-limit-1", request{op: OpScan, limit: 1})
	log.do(c, "delete-accepted", request{op: OpDelete, key: tkey(7)})
	log.do(c, "delete-absent", request{op: OpDelete, key: []byte("nope")})

	stats := exchange(t, c, encodeRequest(request{op: OpStats}))
	var doc map[string]interface{}
	if n := int(binary.BigEndian.Uint32(stats[1:])); len(stats) != 5+n || json.Unmarshal(stats[5:], &doc) != nil {
		t.Fatalf("stats reply is not status|len|json: %x...", stats[:16])
	}
	log.record("stats (status byte; then u32 length | JSON)", stats[:1])

	pinned := binary.BigEndian.Uint64(log.do(c, "snap-open", request{op: OpSnapOpen})[1+8:])
	w := rawConnT(t, solo) // a second connection writes past the pin
	exchange(t, w, encodeRequest(request{op: OpPut, key: tkey(1), value: []byte("new1")}))
	exchange(t, w, encodeRequest(request{op: OpPut, key: []byte("fresh"), value: []byte("f")}))
	exchange(t, w, encodeRequest(request{op: OpDelete, key: tkey(2)}))
	log.do(c, "snap-get-chain-hit", request{op: OpSnapGet, snapID: 1, key: tkey(1)})
	log.do(c, "snap-get-chain-hit-deleted-later", request{op: OpSnapGet, snapID: 1, key: tkey(2)})
	log.do(c, "snap-get-chain-hit-absent", request{op: OpSnapGet, snapID: 1, key: []byte("fresh")})
	log.do(c, "snap-get-fall-through-hit", request{op: OpSnapGet, snapID: 1, key: tkey(4)})
	log.do(c, "snap-get-fall-through-miss", request{op: OpSnapGet, snapID: 1, key: []byte("nope")})
	log.do(c, "snap-scan-2", request{op: OpSnapScan, snapID: 1, lo: tkey(1), hi: tkey(3), limit: 10})
	log.do(c, "snap-scan-0", request{op: OpSnapScan, snapID: 1, lo: []byte("zzz"), limit: 10})
	log.do(c, "snap-open-at-lsn", request{op: OpSnapOpen, atLSN: true, lsn: pinned})
	log.do(c, "snap-open-out-of-range", request{op: OpSnapOpen, atLSN: true, lsn: 1 << 40})
	log.do(c, "snap-get-unknown", request{op: OpSnapGet, snapID: 99, key: tkey(1)})
	log.do(c, "snap-scan-unknown", request{op: OpSnapScan, snapID: 99, limit: 1})
	log.do(c, "snap-release-unknown", request{op: OpSnapRelease, snapID: 99})
	log.do(c, "snap-release", request{op: OpSnapRelease, snapID: 1})
	for i := 0; i < maxSnapsPerConn-1; i++ { // snapshot 2 is still open
		if reply := exchange(t, c, encodeRequest(request{op: OpSnapOpen})); Status(reply[0]) != StatusOK {
			t.Fatalf("snap-open %d: %x", i, reply)
		}
	}
	log.do(c, "snap-open-over-cap", request{op: OpSnapOpen})

	log.do(c, "hello-solo", request{op: OpHello})
	log.do(c, "promote-solo", request{op: OpPromote})
	log.do(c, "ship-pull-plain", request{op: OpShipPull, lsn: 0, limit: 3})
	log.record("ship-pull-stamped (wall stamps zeroed)",
		maskShipStamps(t, exchange(t, c, encodeRequest(request{op: OpShipPull, lsn: 0, limit: 3, stamps: true}))))
	hello := exchange(t, c, encodeRequest(request{op: OpHello}))
	committed := binary.BigEndian.Uint64(hello[1+4+4+1:])
	exchange(t, c, encodeRequest(request{op: OpPut, key: []byte("traced"), value: []byte("t"),
		tc: kv.TraceContext{TraceID: 77, SpanID: 8, Flags: kv.TraceFlagSampled}}))
	log.record("ship-pull-stamped-traced (wall stamps zeroed)",
		maskShipStamps(t, exchange(t, c, encodeRequest(request{op: OpShipPull, lsn: committed, limit: 8, stamps: true}))))
	log.do(c, "ship-pull-empty", request{op: OpShipPull, lsn: committed + 1, limit: 8})

	log.record("bad-unknown-op", exchange(t, c, []byte{0x63}))
	log.record("bad-empty-key", exchange(t, c, []byte{byte(OpGet), 0, 0, 0, 0}))
	log.record("bad-trailing-bytes", exchange(t, c, append(encodeRequest(request{op: OpPing}), 0xEE)))
	log.do(c, "bad-scan-limit", request{op: OpScan, limit: 10001})

	// A solo node without durability: no ship stream, plain-path deletes.
	plain := newTestServer(t, Config{}, flatDev{64 << 20}, false, 1<<20, 4)
	c = rawConnT(t, plain)
	log.do(c, "plain-delete-accepted", request{op: OpDelete, key: tkey(0)})
	log.do(c, "plain-delete-absent", request{op: OpDelete, key: []byte("nope")})
	log.do(c, "plain-upsert", request{op: OpUpsert, key: []byte("ctr"), delta: -2})
	log.do(c, "plain-snap-open", request{op: OpSnapOpen})
	log.do(c, "plain-ship-pull", request{op: OpShipPull, lsn: 0, limit: 3})

	// A primary with a 4-record ship ring: the trimmed position is a gap.
	prim := newTestServer(t, Config{Role: RolePrimary, ShardID: 1, Shards: 3}, flatDev{64 << 20}, true, 1<<20, 0)
	if err := prim.eng.EnableShipping(4); err != nil {
		t.Fatal(err)
	}
	c = rawConnT(t, prim)
	for i := 0; i < 10; i++ {
		exchange(t, c, encodeRequest(request{op: OpPut, key: tkey(i), value: tval(i)}))
	}
	log.do(c, "ship-gap", request{op: OpShipPull, lsn: 0, limit: 100})
	log.do(c, "ship-pull-from-floor", request{op: OpShipPull, lsn: 6, limit: 100})
	log.do(c, "hello-primary", request{op: OpHello})
	log.do(c, "promote-primary", request{op: OpPromote})

	// A replica: writes are fenced until it is promoted.
	repl := newTestServer(t, Config{Role: RoleReplica, ShardID: 2, Shards: 3}, flatDev{64 << 20}, true, 1<<20, 2)
	c = rawConnT(t, repl)
	log.do(c, "put-on-replica", request{op: OpPut, key: tkey(0), value: tval(0)})
	log.do(c, "delete-on-replica", request{op: OpDelete, key: tkey(0)})
	log.do(c, "get-on-replica", request{op: OpGet, key: tkey(0)})
	log.do(c, "hello-replica", request{op: OpHello})
	log.do(c, "promote-replica", request{op: OpPromote})
	log.do(c, "hello-promoted", request{op: OpHello})
	log.do(c, "put-on-promoted", request{op: OpPut, key: tkey(0), value: tval(0)})

	// Admission control. Reads: a one-slot read queue whose only member is
	// parked on the wedged state lock sheds the next read.
	busy := newTestServer(t, Config{BatchIOs: 1, ReadQueue: 1, WriteQueue: 1, WriteBatch: 1},
		flatDev{64 << 20}, false, 1<<20, 4)
	a, b, d, e := rawConnT(t, busy), rawConnT(t, busy), rawConnT(t, busy), rawConnT(t, busy)
	busy.srv.stateMu.Lock()
	unlocked := false
	defer func() {
		if !unlocked {
			busy.srv.stateMu.Unlock()
		}
	}()
	if err := writeFrame(a, encodeRequest(request{op: OpGet, key: tkey(0)})); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if queued, _ := busy.srv.readSched.snapshot(); queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("parked read never admitted")
		}
	}
	log.do(b, "busy-read-queue-full", request{op: OpGet, key: tkey(1)})
	log.do(b, "busy-scan-queue-full", request{op: OpScan, limit: 1})
	// Writes: the writer holds one mutation (wedged on the same lock) and the
	// queue one more, so of three concurrent writes at least one is shed — and
	// it is the first to be answered, since the other two cannot finish.
	first := make(chan []byte, 3)
	for i, conn := range []net.Conn{b, d, e} {
		go func(i int, conn net.Conn) {
			if err := writeFrame(conn, encodeRequest(request{op: OpPut, key: tkey(i), value: tval(i)})); err != nil {
				return
			}
			_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if reply, err := readFrame(conn, DefaultMaxFrame); err == nil {
				first <- reply
			}
		}(i, conn)
	}
	select {
	case reply := <-first:
		log.record("busy-write-queue-full", reply)
	case <-time.After(5 * time.Second):
		t.Fatal("no write was shed with the writer wedged and the queue full")
	}
	busy.srv.stateMu.Unlock()
	unlocked = true
	_ = a.SetReadDeadline(time.Now().Add(10 * time.Second))
	if reply, err := readFrame(a, DefaultMaxFrame); err != nil || Status(reply[0]) != StatusOK {
		t.Fatalf("parked read after unlock: %x %v", reply, err)
	}

	// A ShipPull cut at the frame budget: 2,000 records of ~277 encoded bytes
	// pass half of DefaultMaxFrame before the batch's 4,096-record cap.
	big := newTestServer(t, Config{}, flatDev{64 << 20}, true, 1<<20, 0)
	if err := big.eng.EnableShipping(0); err != nil {
		t.Fatal(err)
	}
	c = rawConnT(t, big)
	val := bytes.Repeat([]byte("x"), 250)
	for i := 0; i < 2000; i++ {
		if reply := exchange(t, c, encodeRequest(request{op: OpPut, key: tkey(i), value: val})); Status(reply[0]) != StatusOK {
			t.Fatalf("put %d: %x", i, reply)
		}
	}
	cut := exchange(t, c, encodeRequest(request{op: OpShipPull, lsn: 0, limit: maxShipBatch}))
	sum := sha256.Sum256(cut)
	log.lines = append(log.lines, fmt.Sprintf("ship-pull-cut-at-frame-budget\thead=%s len=%d sha256=%s",
		hex.EncodeToString(cut[:21]), len(cut), hex.EncodeToString(sum[:])))

	checkGolden(t, "wire.golden", strings.Join(log.lines, "\n")+"\n")
}

// jsonKeys flattens a decoded JSON document into its sorted key paths:
// nested objects as a.b, array elements as a[].b (the union over elements).
func jsonKeys(v interface{}, prefix string, into map[string]bool) {
	switch v := v.(type) {
	case map[string]interface{}:
		for k, child := range v {
			path := k
			if prefix != "" {
				path = prefix + "." + k
			}
			into[path] = true
			jsonKeys(child, path, into)
		}
	case []interface{}:
		for _, child := range v {
			jsonKeys(child, prefix+"[]", into)
		}
	}
}

// surfaceOf renders a node's telemetry surface: every /stats key path and
// every /metrics `family type` pair, each sorted.
func surfaceOf(t *testing.T, s *Server) string {
	t.Helper()
	js, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var doc interface{}
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	jsonKeys(doc, "", keys)
	var out []string
	for k := range keys {
		out = append(out, "stats "+k)
	}
	sort.Strings(out)

	var buf bytes.Buffer
	s.writeProm(&buf)
	var fams []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fams = append(fams, "metrics "+rest)
		}
	}
	sort.Strings(fams)
	return strings.Join(append(out, fams...), "\n") + "\n"
}

func TestGoldenTelemetrySurface(t *testing.T) {
	traffic := func(tb *testBackend) {
		c := dialT(t, tb)
		for i := 0; i < 4; i++ {
			if _, _, err := c.Get(tkey(i)); err != nil {
				t.Fatal(err)
			}
			_ = c.Put(tkey(i), tval(i)) // refused on the replica
		}
		if _, _, err := c.Get([]byte("nope")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Scan(nil, nil, 2); err != nil {
			t.Fatal(err)
		}
	}

	solo := newTestServer(t, Config{}, flatDev{64 << 20}, false, 1<<20, 8)
	traffic(solo)
	checkGolden(t, "surface_solo.golden", surfaceOf(t, solo.srv))

	// A primary with a tracer and a ship stream (the obs block and the
	// ship-position families render).
	prim := newTestServer(t, Config{Role: RolePrimary, Shards: 2,
		Tracer: obs.NewTracer(obs.Config{SampleEvery: 1})}, flatDev{64 << 20}, true, 1<<20, 8)
	if err := prim.eng.EnableShipping(0); err != nil {
		t.Fatal(err)
	}
	traffic(prim)
	checkGolden(t, "surface_primary_tracer.golden", surfaceOf(t, prim.srv))

	repl := newTestServer(t, Config{Role: RoleReplica, ShardID: 1, Shards: 2}, flatDev{64 << 20}, true, 1<<20, 8)
	traffic(repl)
	repl.srv.NoteShipLag(0.012, 3)
	checkGolden(t, "surface_replica.golden", surfaceOf(t, repl.srv))
}

package server

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"iomodels/internal/engine"
	"iomodels/internal/kv"
	"iomodels/internal/wal"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []request{
		{op: OpPing},
		{op: OpStats},
		{op: OpGet, key: []byte("k")},
		{op: OpDelete, key: []byte("k")},
		{op: OpPut, key: []byte("k"), value: []byte("v")},
		{op: OpPut, key: []byte("k"), value: nil}, // empty value is legal
		{op: OpUpsert, key: []byte("ctr"), delta: -42},
		{op: OpScan, lo: []byte("a"), hi: []byte("z"), limit: 10},
		{op: OpScan, lo: nil, hi: nil, limit: 1}, // unbounded scan
		{op: OpSnapOpen},
		{op: OpSnapOpen, atLSN: true, lsn: 42}, // time travel
		{op: OpSnapGet, snapID: 7, key: []byte("k")},
		{op: OpSnapScan, snapID: 7, lo: []byte("a"), hi: []byte("z"), limit: 10},
		{op: OpSnapRelease, snapID: 7},
		{op: OpHello},
		{op: OpShipPull, lsn: 99, limit: 512},
		{op: OpShipPull, lsn: 99, limit: 512, stamps: true}, // stamped-ship extension
		{op: OpPromote},
		{op: OpGet, key: []byte("k"), tc: kv.TraceContext{TraceID: 77, SpanID: 8, Flags: kv.TraceFlagSampled}},
	}
	for _, want := range cases {
		got, err := decodeRequest(encodeRequest(want), 10000)
		if err != nil {
			t.Fatalf("%v: %v", want.op, err)
		}
		if got.op != want.op || !bytes.Equal(got.key, want.key) ||
			!bytes.Equal(got.value, want.value) || !bytes.Equal(got.lo, want.lo) ||
			!bytes.Equal(got.hi, want.hi) || got.limit != want.limit || got.delta != want.delta ||
			got.snapID != want.snapID || got.atLSN != want.atLSN || got.lsn != want.lsn ||
			got.stamps != want.stamps || got.tc != want.tc {
			t.Fatalf("round trip mutated request: %+v -> %+v", want, got)
		}
	}
}

func TestDecodeRequestRejects(t *testing.T) {
	bad := [][]byte{
		{},                        // no op
		{99},                      // unknown op
		{byte(OpGet)},             // missing key
		{byte(OpGet), 0, 0, 0, 0}, // empty key
		{byte(OpPut), 0, 0, 0, 1}, // truncated key
		append(encodeRequest(request{op: OpPing}), 0xEE), // trailing bytes
		encodeRequest(request{op: OpScan, limit: 0}),     // zero limit
		encodeRequest(request{op: OpScan, limit: 99999}), // over limit cap
		{byte(OpUpsert), 0, 0, 0, 1, 'k'},                // missing delta
	}
	for _, buf := range bad {
		if req, err := decodeRequest(buf, 10000); err == nil {
			t.Fatalf("payload %x decoded as %+v", buf, req)
		}
	}
}

// TestMutationDoesNotPinFrame: the store keeps a mutation's key and value (a
// B-tree leaf, the ship ring), and a frame may be almost all extension
// padding the decoder skips, so decodeRequest copies a mutation's fields out
// of its frame: with the decoded request still in use, the frame is garbage.
func TestMutationDoesNotPinFrame(t *testing.T) {
	for _, op := range []Op{OpPut, OpDelete, OpUpsert} {
		var e kv.Enc
		e.U8(kv.ExtMagic)
		e.U8(1)
		e.U8(0xEE) // an extension kind the server does not know: skipped by length
		e.Bytes(make([]byte, 1<<20-64))
		e.Buf = append(e.Buf, encodeRequest(request{op: op, key: []byte("key"), value: []byte("value"), delta: 1})...)
		frame := bytes.Clone(e.Buf) // readFrame's one allocation per frame
		freed := make(chan struct{})
		runtime.SetFinalizer(&frame[0], func(*byte) { close(freed) })
		req, err := decodeRequest(frame, 10000)
		if err != nil || string(req.key) != "key" {
			t.Fatalf("%v: decoded %q, %v", op, req.key, err)
		}
		frame = nil
		deadline := time.After(5 * time.Second)
		for released := false; !released; {
			runtime.GC()
			select {
			case <-freed:
				released = true
			case <-time.After(10 * time.Millisecond):
			case <-deadline:
				t.Fatalf("%v: the request frame is still reachable from the decoded request", op)
			}
		}
		if string(req.key) != "key" || (op == OpPut && string(req.value) != "value") {
			t.Fatalf("%v: decoded fields changed to %q, %q", op, req.key, req.value)
		}
	}
}

func TestFrameLimits(t *testing.T) {
	var out bytes.Buffer
	payload := bytes.Repeat([]byte("x"), 100)
	if err := writeFrame(&out, payload); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&out, 1000)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip: %v", err)
	}

	out.Reset()
	_ = writeFrame(&out, payload)
	if _, err := readFrame(&out, 50); err == nil {
		t.Fatal("oversized frame accepted")
	}

	// Truncated frame body.
	out.Reset()
	_ = writeFrame(&out, payload)
	trunc := bytes.NewReader(out.Bytes()[:frameHdr+10])
	if _, err := readFrame(trunc, 1000); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestStatusEncoding(t *testing.T) {
	busy := encodeReply(request{op: OpGet}, failure(StatusBusy, "read queue full"))
	d := &kv.Dec{Buf: busy}
	if Status(d.U8()) != StatusBusy || string(d.Bytes()) != "read queue full" || d.Err != nil || d.Off != len(busy) {
		t.Fatal("busy status mangled")
	}
	if rep, err := decodeReply(request{op: OpGet}, busy); err != nil || rep.status != StatusBusy || rep.msg != "read queue full" {
		t.Fatalf("busy reply decoded as %+v, %v", rep, err)
	}
	if ok := encodeReply(request{op: OpPing}, reply{status: StatusOK, msg: "ignored"}); !bytes.Equal(ok, []byte{byte(StatusOK)}) {
		t.Fatalf("ok status should carry no message: %x", ok)
	}
}

// TestReplyRoundTrip: every OK reply shape survives encodeReply → decodeReply.
func TestReplyRoundTrip(t *testing.T) {
	recs := []engine.ShipRecord{
		{Record: wal.Record{Kind: kv.Put, Seq: 7, Key: []byte("k"), Value: []byte("v"), TraceID: 77, SpanID: 8}, CommitWallNs: 123},
		{Record: wal.Record{Kind: kv.Tombstone, Seq: 8, Key: []byte("gone"), Value: []byte{}}},
	}
	plain := []engine.ShipRecord{{Record: recs[0].Record}, recs[1]}
	plain[0].TraceID, plain[0].SpanID = 0, 0 // stamps travel only when asked for
	cases := []struct {
		req  request
		want reply
	}{
		{request{op: OpPing}, reply{status: StatusOK}},
		{request{op: OpGet}, reply{status: StatusOK, value: []byte("v")}},
		{request{op: OpGet}, reply{status: StatusNotFound}},
		{request{op: OpStats}, reply{status: StatusOK, value: []byte("{}")}},
		{request{op: OpDelete}, reply{status: StatusOK, accepted: true}},
		{request{op: OpScan, limit: 2}, reply{status: StatusOK, entries: []kv.Entry{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte{}}}}},
		{request{op: OpSnapScan, limit: 1}, reply{status: StatusOK, entries: []kv.Entry{}}},
		{request{op: OpSnapOpen}, reply{status: StatusOK, snapID: 3, lsn: 99}},
		{request{op: OpHello}, reply{status: StatusOK, info: NodeInfo{ShardID: 1, Shards: 3, Role: RoleReplica, CommittedLSN: 10, AppliedLSN: 9}}},
		{request{op: OpShipPull, limit: 2}, reply{status: StatusOK, committed: 8, floor: 6, recs: plain}},
		{request{op: OpShipPull, limit: 2, stamps: true}, reply{status: StatusOK, committed: 8, floor: 6, recs: recs}},
		{request{op: OpPromote}, reply{status: StatusOK, lsn: 42}},
		{request{op: OpPut}, failure(StatusNotPrimary, "elsewhere")},
	}
	for _, c := range cases {
		got, err := decodeReply(c.req, encodeReply(c.req, c.want))
		if err != nil {
			t.Fatalf("%v: %v", c.req.op, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%v reply round trip: %+v -> %+v", c.req.op, c.want, got)
		}
	}
	// A reply announcing more entries than the request allowed is malformed.
	over := encodeReply(request{op: OpScan}, reply{status: StatusOK, entries: make([]kv.Entry, 3)})
	if _, err := decodeReply(request{op: OpScan, limit: 2}, over); err == nil {
		t.Fatal("scan reply past the request's limit decoded")
	}
}

// TestGetReplyAllocs pins the hot reply's cost: encoding a Get hit allocates
// the payload and nothing else (the pre-codec server built it in two).
func TestGetReplyAllocs(t *testing.T) {
	req, rep := request{op: OpGet}, reply{status: StatusOK, value: tval(1)}
	if n := testing.AllocsPerRun(1000, func() { _ = encodeReply(req, rep) }); n > 2 {
		t.Fatalf("Get-OK encodeReply allocates %.0f times, want <= 2", n)
	}
}

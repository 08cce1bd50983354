// Snapshot-read integration tests: the wire protocol's snapshot ops against
// a live server — a pinned snapshot's reads stay byte-identical while other
// connections write past it, expired/unknown ids fail with the dedicated
// status, and disconnects release every snapshot the connection held.

package server

import (
	"encoding/json"
	"errors"
	"testing"
	"time"
)

func TestServerSnapshotEndToEnd(t *testing.T) {
	tb := newTestServer(t, Config{}, flatDev{64 << 20}, true, 1<<20, 50)
	reader := dialT(t, tb)
	writer := dialT(t, tb)

	id, lsn, err := reader.SnapOpen()
	if err != nil {
		t.Fatal(err)
	}
	if lsn == 0 {
		t.Fatal("snapshot pinned LSN 0 after a 50-item durable preload")
	}

	// Another connection rewrites the world past the pin.
	if err := writer.Put(tkey(7), []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Delete(tkey(9)); err != nil {
		t.Fatal(err)
	}
	if err := writer.Put(tkey(999), tval(999)); err != nil {
		t.Fatal(err)
	}

	// The snapshot still reads the pinned world...
	if v, ok, err := reader.SnapGet(id, tkey(7)); err != nil || !ok || string(v) != string(tval(7)) {
		t.Fatalf("snap get overwritten key: %q %v %v, want pre-image", v, ok, err)
	}
	if v, ok, err := reader.SnapGet(id, tkey(9)); err != nil || !ok || string(v) != string(tval(9)) {
		t.Fatalf("snap get deleted key: %q %v %v, want pre-image", v, ok, err)
	}
	if _, ok, err := reader.SnapGet(id, tkey(999)); err != nil || ok {
		t.Fatalf("snap get post-pin insert: ok=%v err=%v, want absent", ok, err)
	}
	// ...while plain reads on the same connection see the new one.
	if v, ok, err := reader.Get(tkey(7)); err != nil || !ok || string(v) != "rewritten" {
		t.Fatalf("plain get: %q %v %v, want rewrite", v, ok, err)
	}

	// Snapshot scan: deleted key present, overwrite reverted, insert absent.
	entries, err := reader.SnapScan(id, nil, nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 50 {
		t.Fatalf("snap scan returned %d entries, want the pinned 50", len(entries))
	}
	for _, e := range entries {
		if string(e.Key) == string(tkey(999)) {
			t.Fatal("snap scan surfaced a post-pin insert")
		}
		if string(e.Key) == string(tkey(7)) && string(e.Value) != string(tval(7)) {
			t.Fatalf("snap scan key 7 = %q, want pre-image", e.Value)
		}
	}

	// Time travel: the open-reply LSN is re-pinnable while the first
	// snapshot keeps the window alive.
	id2, lsn2, err := reader.SnapOpenAt(lsn)
	if err != nil {
		t.Fatal(err)
	}
	if lsn2 != lsn {
		t.Fatalf("SnapOpenAt pinned %d, want %d", lsn2, lsn)
	}
	if v, ok, err := reader.SnapGet(id2, tkey(9)); err != nil || !ok || string(v) != string(tval(9)) {
		t.Fatalf("time-travel get: %q %v %v", v, ok, err)
	}
	if err := reader.SnapRelease(id2); err != nil {
		t.Fatal(err)
	}
	// Far-future LSN: outside the window.
	if _, _, err := reader.SnapOpenAt(lsn + 1<<20); !errors.Is(err, ErrSnapExpired) {
		t.Fatalf("out-of-range open: err = %v, want ErrSnapExpired", err)
	}

	// Unknown and released ids fail with the dedicated status.
	if _, _, err := reader.SnapGet(id+100, tkey(0)); !errors.Is(err, ErrSnapExpired) {
		t.Fatalf("unknown id: err = %v, want ErrSnapExpired", err)
	}
	if err := reader.SnapRelease(id); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reader.SnapGet(id, tkey(0)); !errors.Is(err, ErrSnapExpired) {
		t.Fatalf("released id: err = %v, want ErrSnapExpired", err)
	}

	// The stats document carries the MVCC surface.
	js, err := reader.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(js, &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.MVCCEnabled || snap.MVCCOpened < 2 || snap.MVCCReleased < 2 {
		t.Fatalf("stats mvcc: %+v", snap)
	}
	if snap.SnapChainHits == 0 {
		t.Fatal("no server-side chain hits despite reads of chain-recorded keys")
	}
	if snap.SnapExpired == 0 {
		t.Fatal("snap_expired counter never moved")
	}
}

// TestServerSnapshotReleasedOnDisconnect: every snapshot a connection
// opened is released when it disconnects, and past the per-connection cap an
// open refused with ErrBusy pins nothing.
func TestServerSnapshotReleasedOnDisconnect(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opens int
	}{{"under_cap", 2}, {"past_cap", maxSnapsPerConn + 1}} {
		t.Run(tc.name, func(t *testing.T) {
			tb := newTestServer(t, Config{}, flatDev{64 << 20}, true, 1<<20, 10)
			c := dialT(t, tb)
			for i := 0; i < tc.opens; i++ {
				_, _, err := c.SnapOpen()
				if i < maxSnapsPerConn && err != nil {
					t.Fatalf("open %d: %v", i, err)
				}
				if i >= maxSnapsPerConn && !errors.Is(err, ErrBusy) {
					t.Fatalf("over-cap open: err = %v, want ErrBusy", err)
				}
			}
			if got, want := tb.eng.MVCCStats().LiveSnapshots, min(tc.opens, maxSnapsPerConn); got != want {
				t.Fatalf("live snapshots = %d, want %d", got, want)
			}
			c.Close()
			deadline := time.Now().Add(5 * time.Second)
			for tb.eng.MVCCStats().LiveSnapshots != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("disconnect leaked snapshots: %d live", tb.eng.MVCCStats().LiveSnapshots)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

func TestServerSnapshotPerConnCap(t *testing.T) {
	tb := newTestServer(t, Config{}, flatDev{64 << 20}, true, 1<<20, 10)
	c := dialT(t, tb)
	ids := make([]uint64, 0, maxSnapsPerConn)
	for i := 0; i < maxSnapsPerConn; i++ {
		id, _, err := c.SnapOpen()
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	if _, _, err := c.SnapOpen(); !errors.Is(err, ErrBusy) {
		t.Fatalf("over-cap open: err = %v, want ErrBusy", err)
	}
	if err := c.SnapRelease(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SnapOpen(); err != nil {
		t.Fatalf("open after release: %v", err)
	}
}

func TestServerSnapshotNonDurable(t *testing.T) {
	// Without durability there are no LSNs; the op must fail cleanly, not
	// panic or hang.
	tb := newTestServer(t, Config{}, flatDev{64 << 20}, false, 1<<20, 10)
	c := dialT(t, tb)
	if _, _, err := c.SnapOpen(); err == nil {
		t.Fatal("snapshot open on a non-durable backend succeeded")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after refused snapshot: %v", err)
	}
}

// Ship-stream waits: a caught-up pull waits at the primary for the next
// commit (for at most shipPark), and Close ends both that wait and the
// sync-ship ack gate's.

package server

import (
	"bytes"
	"testing"
	"time"
)

// newShippingServer is a durable server with shipping on, preloaded with
// items records, and its committed LSN.
func newShippingServer(t *testing.T, cfg Config, items int) (*testBackend, uint64) {
	t.Helper()
	tb := newTestServer(t, cfg, flatDev{64 << 20}, true, 1<<20, items)
	if err := tb.eng.EnableShipping(0); err != nil {
		t.Fatal(err)
	}
	return tb, tb.eng.ShipStats().CommittedLSN
}

// waitInFlight polls until n requests are being served.
func waitInFlight(t *testing.T, tb *testBackend, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); tb.srv.metrics.inFlight.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests in flight, want %d", tb.srv.metrics.inFlight.Load(), n)
		}
	}
}

// TestShipPullWaitsForNextCommit: a caught-up pull waits at the primary, and
// a record committed while it waits comes back on that same pull, long
// before the wait would have run out.
func TestShipPullWaitsForNextCommit(t *testing.T) {
	tb, committed := newShippingServer(t, Config{}, 4)
	type pulled struct {
		n       int
		elapsed time.Duration
		err     error
	}
	got := make(chan pulled, 1)
	puller := dialT(t, tb)
	go func() {
		start := time.Now()
		recs, _, _, err := puller.ShipPull(committed, 8)
		got <- pulled{len(recs), time.Since(start), err}
	}()
	waitInFlight(t, tb, 1)
	time.Sleep(10 * time.Millisecond) // let the pull reach its wait
	if err := dialT(t, tb).Put(tkey(100), tval(100)); err != nil {
		t.Fatal(err)
	}
	p := <-got
	if p.err != nil {
		t.Fatal(p.err)
	}
	// An empty reply is what a pull whose wait ran out returns; one record
	// means the commit woke it.
	if p.n != 1 || p.elapsed >= shipPark {
		t.Fatalf("pull returned %d records after %v, want 1 well inside shipPark (%v)", p.n, p.elapsed, shipPark)
	}
}

// TestShipPullParkTimesOutEmpty: with no commit to wait for, a caught-up
// pull returns after shipPark with the empty reply a pull has always
// answered at once.
func TestShipPullParkTimesOutEmpty(t *testing.T) {
	tb, committed := newShippingServer(t, Config{}, 4)
	floor := tb.eng.ShipStats().FloorLSN
	req := request{op: OpShipPull, lsn: committed, limit: 8}
	c := rawConnT(t, tb)
	start := time.Now()
	got := exchange(t, c, encodeRequest(req))
	if elapsed := time.Since(start); elapsed < shipPark {
		t.Fatalf("caught-up pull returned after %v, before shipPark (%v)", elapsed, shipPark)
	}
	if want := encodeReply(req, reply{status: StatusOK, committed: committed, floor: floor}); !bytes.Equal(got, want) {
		t.Fatalf("timed-out pull reply %x, want %x", got, want)
	}
}

// TestCloseWakesWaitingShipPull: Close ends a parked pull at once instead of
// waiting out shipPark.
func TestCloseWakesWaitingShipPull(t *testing.T) {
	tb, committed := newShippingServer(t, Config{}, 4)
	pulled := make(chan error, 1)
	puller := dialT(t, tb)
	go func() {
		_, _, _, err := puller.ShipPull(committed, 8)
		pulled <- err
	}()
	waitInFlight(t, tb, 1)
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	if err := tb.srv.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= shipPark/2 {
		t.Fatalf("Close took %v with a parked pull; it should wake the pull, not wait out shipPark (%v)", took, shipPark)
	}
	<-pulled
}

// TestCloseDuringSyncShipGate: a sync-ship primary with no replica holds a
// Put at the ack gate; Close ends that wait instead of sitting out
// SyncShipTimeout, and the Put is not acknowledged.
func TestCloseDuringSyncShipGate(t *testing.T) {
	tb, committed := newShippingServer(t, Config{Role: RolePrimary, SyncShip: true, SyncShipTimeout: 5 * time.Second}, 4)
	put := make(chan error, 1)
	c := dialT(t, tb)
	go func() { put <- c.Put(tkey(100), tval(100)) }()
	// The batch commits, then waits at the gate.
	for deadline := time.Now().Add(5 * time.Second); tb.eng.ShipStats().CommittedLSN == committed; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the Put never committed")
		}
	}
	start := time.Now()
	if err := tb.srv.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("Close took %v with a Put at the sync-ship gate (SyncShipTimeout 5s)", took)
	}
	if err := <-put; err == nil {
		t.Fatal("a Put no replica acknowledged was acknowledged")
	}
}

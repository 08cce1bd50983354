// Serving-path tests: the shared clock must make aligned clients' IOs
// overlap on the PDAM device (the server scheduler's whole point), AdoptSharedClock
// must carry the owner — and with it the WAL — onto the shared timeline, and
// ApplyBatch must turn N mutations into one WAL flush.

package engine_test

import (
	"bytes"
	"testing"
	"time"

	"iomodels/internal/btree"
	"iomodels/internal/engine"
	"iomodels/internal/kv"
	"iomodels/internal/pdamdev"
	"iomodels/internal/sim"
	"iomodels/internal/storage"
)

// TestSharedClockOverlap: P aligned clients each read one block starting at
// the same virtual instant — the PDAM device serves them all in one step. A
// DAM-style serial schedule (each client aligned to the previous one's
// completion) takes P steps for the same work.
func TestSharedClockOverlap(t *testing.T) {
	const (
		p     = 4
		block = int64(4 << 10)
		step  = 100 * sim.Microsecond
	)
	newEng := func() *engine.Engine {
		dev := pdamdev.New(p, block, step)
		return engine.New(engine.Config{CacheBytes: 1 << 20}, dev.Storage(64<<20), sim.New())
	}

	// Overlapped: all clients start at the clock's mark; every read packs
	// into the same device step.
	e := newEng()
	sc := engine.NewSharedClock()
	start := sc.Now()
	buf := make([]byte, block)
	clients := make([]*engine.Client, p)
	for i := range clients {
		clients[i] = e.SharedClient(sc)
	}
	for i, c := range clients {
		c.AlignTo(start)
		c.ReadAt(buf, int64(i)*block)
	}
	if got := sc.Now() - start; got != step {
		t.Fatalf("overlapped batch of %d reads took %v of virtual time, want one step (%v)", p, got, step)
	}

	// Serialized: each client only starts once the previous finished.
	e2 := newEng()
	sc2 := engine.NewSharedClock()
	start2 := sc2.Now()
	for i := 0; i < p; i++ {
		c := e2.SharedClient(sc2)
		c.AlignTo(sc2.Now())
		c.ReadAt(buf, int64(i)*block)
	}
	if got := sc2.Now() - start2; got != sim.Time(p)*step {
		t.Fatalf("serial schedule of %d reads took %v, want %d steps (%v)", p, got, p, sim.Time(p)*step)
	}
}

// TestAlignToNeverRewinds: AlignTo is forward-only, so a client re-joining a
// later batch cannot back-fill device steps it already consumed.
func TestAlignToNeverRewinds(t *testing.T) {
	dev := pdamdev.New(2, 4<<10, 100*sim.Microsecond)
	e := engine.New(engine.Config{CacheBytes: 1 << 20}, dev.Storage(64<<20), sim.New())
	sc := engine.NewSharedClock()
	c := e.SharedClient(sc)
	c.ReadAt(make([]byte, 4<<10), 0)
	after := c.Now()
	c.AlignTo(0)
	if c.Now() != after {
		t.Fatalf("AlignTo(0) rewound cursor from %v to %v", after, c.Now())
	}
	c.AlignTo(after + sim.Millisecond)
	if c.Now() != after+sim.Millisecond {
		t.Fatalf("AlignTo forward: cursor %v, want %v", c.Now(), after+sim.Millisecond)
	}
}

// TestAlignToPanicsOnOwner: only shared-clock clients can be re-aligned; a
// silent no-op on the owner would hide a miswired server.
func TestAlignToPanicsOnOwner(t *testing.T) {
	e := engine.FromStore(engCfg(), storage.NewFaultStore(flatDev{testCapacity}), sim.New())
	defer func() {
		if recover() == nil {
			t.Fatal("AlignTo on the owner client did not panic")
		}
	}()
	e.Owner().AlignTo(sim.Millisecond)
}

// gateLoader loads a page with one real (virtual-time) block read and then
// keeps holding the page's busy latch until the test closes release.
type gateLoader struct {
	loading chan struct{} // closed once Load holds the latch, its IO done
	release chan struct{}
}

func (l *gateLoader) Load(c *engine.Client, id engine.PageID) (interface{}, int64) {
	buf := make([]byte, 4<<10)
	c.ReadAt(buf, int64(id))
	close(l.loading)
	<-l.release
	return buf, int64(len(buf))
}

func (l *gateLoader) Store(*engine.Client, engine.PageID, interface{}) {}

// TestSharedLatchWaitChargesNoVirtualTime: how long the host keeps a page's
// loader off-CPU must not reach the timeline. A shared-clock client that
// finds the page latched resumes at max(its own cursor, the instant the
// loader released the latch), whether the loader held it for 1 ms or for
// 50 ms of wall time. (A waiter that charged virtual time per poll — 20 µs
// per runtime.Gosched pass — ended up hundreds of steps past the loader, by
// an amount the host decided: the tier-1 flake of E20/E23.)
func TestSharedLatchWaitChargesNoVirtualTime(t *testing.T) {
	const step = 100 * sim.Microsecond
	run := func(hold time.Duration, waiterAt sim.Time) (waiter, released sim.Time) {
		dev := pdamdev.New(2, 4<<10, step)
		e := engine.New(engine.Config{CacheBytes: 1 << 20}, dev.Storage(64<<20), sim.New())
		sc := engine.NewSharedClock()
		holder, w := e.SharedClient(sc), e.SharedClient(sc)
		w.AlignTo(waiterAt)
		l := &gateLoader{loading: make(chan struct{}), release: make(chan struct{})}
		loaded, got := make(chan sim.Time, 1), make(chan sim.Time, 1)
		go func() {
			e.Pager().Get(holder, l, 0)
			loaded <- holder.Now()
		}()
		<-l.loading
		entered := make(chan struct{})
		go func() {
			close(entered)
			e.Pager().Get(w, l, 0)
			got <- w.Now()
		}()
		<-entered
		time.Sleep(hold) // the waiter spins on the latch for this long
		close(l.release)
		return <-got, <-loaded
	}
	for _, waiterAt := range []sim.Time{0, 10 * step} { // behind and ahead of the loader
		var cursors []sim.Time
		for _, hold := range []time.Duration{time.Millisecond, 50 * time.Millisecond} {
			waiter, released := run(hold, waiterAt)
			if released != step {
				t.Fatalf("loader released at %v, want one device step (%v)", released, step)
			}
			if want := max(waiterAt, released); waiter != want {
				t.Errorf("waiter at %v, latch held %v: resumed at %v, want max(own cursor, release instant) = %v",
					waiterAt, hold, waiter, want)
			}
			cursors = append(cursors, waiter)
		}
		if cursors[0] != cursors[1] {
			t.Errorf("waiter at %v: cursor depends on how long the host held the latch: %v (1 ms) vs %v (50 ms)",
				waiterAt, cursors[0], cursors[1])
		}
	}
}

// TestAdoptSharedClock: after adoption the owner (and so the trees and WAL
// bound to it) runs on the shared timeline — mutations advance the shared
// mark, and reads through shared clients see the written data.
func TestAdoptSharedClock(t *testing.T) {
	fs := storage.NewFaultStore(flatDev{testCapacity})
	e := engine.FromStore(engCfg(), fs, sim.New())
	if err := e.EnableDurability(smallDur()); err != nil {
		t.Fatal(err)
	}
	bt, err := btree.New(btreeCfg(), e)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Durable("bt", bt)
	if err != nil {
		t.Fatal(err)
	}
	d.Put(key(0), val(0)) // pre-adoption load on the sim clock
	loaded := e.Clock().Now()

	sc := engine.NewSharedClock()
	e.AdoptSharedClock(sc)
	if sc.Now() < loaded {
		t.Fatalf("adoption lost time: shared mark %v < sim clock %v", sc.Now(), loaded)
	}
	before := sc.Now()
	d.Put(key(1), val(1))
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if sc.Now() <= before {
		t.Fatalf("post-adoption mutation+sync did not advance the shared mark (%v)", sc.Now())
	}
	rc := e.SharedClient(sc)
	sess := bt.Session(rc)
	for i := 0; i < 2; i++ {
		if v, ok := sess.Get(key(i)); !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("key %d: got %q,%v want %q", i, v, ok, val(i))
		}
	}
}

// TestApplyBatchGroupCommit: N mutations from one batch produce N log
// records but a single WAL flush (GroupBytes is set large enough that no
// auto-commit fires mid-batch), and Accepted carries Delete's report.
func TestApplyBatchGroupCommit(t *testing.T) {
	fs := storage.NewFaultStore(flatDev{testCapacity})
	e := engine.FromStore(engCfg(), fs, sim.New())
	dcfg := engine.DurabilityConfig{
		LogBytes:             8 << 20,
		GroupBytes:           1 << 20, // one group holds the whole batch
		JournalBytes:         4 << 20,
		CheckpointEveryBytes: -1,
	}
	if err := e.EnableDurability(dcfg); err != nil {
		t.Fatal(err)
	}
	bt, err := btree.New(btreeCfg(), e)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Durable("bt", bt)
	if err != nil {
		t.Fatal(err)
	}

	const n = 32
	muts := make([]engine.Mutation, 0, n+2)
	for i := 0; i < n; i++ {
		muts = append(muts, engine.Mutation{Dict: d, Kind: kv.Put, Key: key(i), Value: val(i)})
	}
	muts = append(muts,
		engine.Mutation{Dict: d, Kind: kv.Tombstone, Key: key(0)},
		engine.Mutation{Dict: d, Kind: kv.Tombstone, Key: key(9999)}, // absent
	)
	before := e.DurabilityStats()
	if err := e.ApplyBatch(muts); err != nil {
		t.Fatal(err)
	}
	after := e.DurabilityStats()
	if got := after.LogRecords - before.LogRecords; got != int64(len(muts)) {
		t.Fatalf("batch logged %d records, want %d", got, len(muts))
	}
	if got := after.LogCommits - before.LogCommits; got != 1 {
		t.Fatalf("batch of %d mutations flushed the WAL %d times, want 1 (group commit)", len(muts), got)
	}
	for i := 0; i < n; i++ {
		if !muts[i].Accepted {
			t.Fatalf("put %d not marked accepted", i)
		}
	}
	if !muts[n].Accepted {
		t.Fatal("delete of present key not accepted")
	}
	// The B-tree reports deletes of absent keys as not accepted.
	if muts[n+1].Accepted {
		t.Fatal("delete of absent key marked accepted by the B-tree")
	}
	if _, ok := d.Get(key(0)); ok {
		t.Fatal("deleted key survived the batch")
	}
	if v, ok := d.Get(key(1)); !ok || !bytes.Equal(v, val(1)) {
		t.Fatal("batched put not visible")
	}
}

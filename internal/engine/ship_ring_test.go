// The ship ring against a model, and its cost guards: a naive slice oracle
// (append, then drop from the front — the obviously-correct ring) is driven
// in lockstep with the real one through the engine's public surface, and the
// at-capacity append is held to the below-capacity append's allocation.

package engine_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"iomodels/internal/engine"
	"iomodels/internal/kv"
	"iomodels/internal/sim"
	"iomodels/internal/storage"
)

// nullDict accepts every mutation and stores nothing: under a Durable
// wrapper what is left is the WAL append, the version bracket and the commit
// hook — the ship ring's whole input.
type nullDict struct{}

func (nullDict) Get([]byte) ([]byte, bool)                  { return nil, false }
func (nullDict) Put(_, _ []byte)                            {}
func (nullDict) Delete([]byte) bool                         { return true }
func (nullDict) Scan(_, _ []byte, _ func(_, _ []byte) bool) {}
func (nullDict) Stats() engine.Stats                        { return engine.Stats{} }

// newNullEngine builds a durable engine over a null dictionary.
func newNullEngine(tb testing.TB, dcfg engine.DurabilityConfig) (*engine.Engine, *engine.Durable) {
	tb.Helper()
	e := engine.FromStore(engCfg(), storage.NewFaultStore(flatDev{testCapacity}), sim.New())
	if err := e.EnableDurability(dcfg); err != nil {
		tb.Fatal(err)
	}
	d, err := e.Durable("null", nullDict{})
	if err != nil {
		tb.Fatal(err)
	}
	return e, d
}

// logged is one record as the test appended it.
type logged struct {
	seq        uint64
	kind       kv.Kind
	key, value []byte
}

// sliceRing is the oracle: the ring as a slice that drops from the front.
type sliceRing struct {
	cap       int
	recs      []logged
	floor     uint64
	committed uint64
}

func (o *sliceRing) append(r logged) {
	o.recs = append(o.recs, r)
	o.committed = r.seq
	if len(o.recs) > o.cap {
		o.floor = o.recs[0].seq
		o.recs = o.recs[1:]
	}
}

// since mirrors ShipSince: gap below the floor, else the records past after,
// clipped to max (0 = no clip).
func (o *sliceRing) since(after uint64, max int) (recs []logged, gap bool) {
	if after < o.floor {
		return nil, true
	}
	for _, r := range o.recs {
		if r.seq > after && (max <= 0 || len(recs) < max) {
			recs = append(recs, r)
		}
	}
	return recs, false
}

// TestShipRingMatchesSliceOracle drives random interleavings of unsynced
// mutations, group commits, syncs, checkpoints and pulls at a random small
// capacity, over logs that commit implicitly mid-append, checkpoint on a
// threshold, or fill and burn sequence numbers — every way a record becomes
// durable — after enabling shipping on a log that already holds a committed
// tail. After every step the ring's counters and a random pull must equal
// the oracle's.
func TestShipRingMatchesSliceOracle(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { shipRingRun(t, rand.New(rand.NewSource(seed))) })
	}
}

func shipRingRun(t *testing.T, rng *rand.Rand) {
	dcfg := engine.DurabilityConfig{
		LogBytes:             1 << 20,
		GroupBytes:           128 + rng.Intn(896),
		JournalBytes:         4 << 20,
		CheckpointEveryBytes: 4<<10 + int64(rng.Intn(8<<10)),
	}
	if rng.Intn(3) == 0 { // tiny log, log-full checkpoints only
		dcfg.LogBytes, dcfg.CheckpointEveryBytes = 8<<10, -1
	}
	e, d := newNullEngine(t, dcfg)

	var all []logged // every record appended, seq-ascending (burned seqs leave gaps)
	mutate := func(i int) (kv.Kind, []byte, []byte) {
		if rng.Intn(4) == 0 {
			return kv.Tombstone, key(i), nil
		}
		return kv.Put, key(i), val(rng.Intn(1 << 20))
	}
	note := func(kind kv.Kind, k, v []byte) {
		all = append(all, logged{seq: e.LogSeq(), kind: kind, key: k, value: v})
	}
	direct := func() {
		kind, k, v := mutate(len(all))
		if kind == kv.Put {
			d.Put(k, v)
		} else {
			d.Delete(k)
		}
		note(kind, k, v)
	}

	// A committed tail for EnableShipping to backfill, past a checkpoint.
	for i, n := 0, rng.Intn(100); i < n; i++ {
		direct()
		if rng.Intn(40) == 0 {
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	base := e.DurabilityStats().LastLSN
	o := &sliceRing{cap: 1 + rng.Intn(64), floor: base, committed: base}
	if err := e.EnableShipping(o.cap); err != nil {
		t.Fatal(err)
	}
	fed := 0 // all[:fed] is covered by the last checkpoint or in the oracle
	for fed < len(all) && all[fed].seq <= base {
		fed++
	}

	// check feeds the oracle what became durable, then compares counters and
	// one random pull. synced says every appended record must be durable.
	check := func(step string, synced bool) {
		t.Helper()
		ss := e.ShipStats()
		if ss.CommittedLSN < o.committed || ss.CommittedLSN > e.LogSeq() || (synced && len(all) > 0 && ss.CommittedLSN < all[len(all)-1].seq) {
			t.Fatalf("%s: committed LSN %d (was %d, log at %d, synced %v)", step, ss.CommittedLSN, o.committed, e.LogSeq(), synced)
		}
		for fed < len(all) && all[fed].seq <= ss.CommittedLSN {
			o.append(all[fed])
			fed++
		}
		if !ss.Enabled || ss.Buffered != len(o.recs) || ss.FloorLSN != o.floor || ss.CommittedLSN != o.committed {
			t.Fatalf("%s: stats %+v, oracle buffered %d floor %d committed %d", step, ss, len(o.recs), o.floor, o.committed)
		}
		// Straddle the floor and the head: a few positions either side.
		after := o.floor + uint64(rng.Intn(len(o.recs)+4))
		if after >= 2 {
			after -= 2
		}
		max := rng.Intn(o.cap + 4) // 0 = unclipped
		got, st, err := e.ShipSince(after, max)
		want, gap := o.since(after, max)
		if st.CommittedLSN != o.committed || st.FloorLSN != o.floor {
			t.Fatalf("%s: pull status %+v, oracle floor %d committed %d", step, st, o.floor, o.committed)
		}
		if gap != errors.Is(err, engine.ErrShipGap) || (!gap && err != nil) {
			t.Fatalf("%s: ShipSince(%d) err %v with floor %d", step, after, err, o.floor)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: ShipSince(%d, %d) returned %d records, oracle %d (floor %d committed %d)",
				step, after, max, len(got), len(want), o.floor, o.committed)
		}
		for i, w := range want {
			g := got[i]
			if g.Seq != w.seq || g.Kind != w.kind || !bytes.Equal(g.Key, w.key) || !bytes.Equal(g.Value, w.value) || g.CommitWallNs == 0 {
				t.Fatalf("%s: pulled record %d = %+v, oracle seq %d kind %d %q=%q", step, i, g, w.seq, w.kind, w.key, w.value)
			}
		}
	}
	check("backfill", true)

	for step := 0; step < 400; step++ {
		switch p := rng.Intn(100); {
		case p < 45:
			direct()
			check("put", false)
		case p < 80:
			muts := make([]engine.Mutation, 1+rng.Intn(12))
			for i := range muts {
				kind, k, v := mutate(len(all) + i)
				muts[i] = engine.Mutation{Dict: d, Kind: kind, Key: k, Value: v}
			}
			// Mutation by mutation, so each record's final seq is observed.
			for i := range muts {
				if err := e.ApplyBatchNoSync(muts[i : i+1]); err != nil {
					t.Fatal(err)
				}
				note(muts[i].Kind, muts[i].Key, muts[i].Value)
			}
			if err := e.Sync(); err != nil {
				t.Fatal(err)
			}
			check("batch", true)
		case p < 92:
			if err := e.Sync(); err != nil {
				t.Fatal(err)
			}
			check("sync", true)
		default:
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			check("checkpoint", true)
		}
	}
	if o.floor == base {
		t.Fatalf("ring of %d never trimmed in %d records: the wrap went unexercised", o.cap, len(all))
	}
}

// shipApplyBatch is the size the ship benchmarks commit at: the records per
// group commit the 16-client durable benchmark workload settles on.
const shipApplyBatch = 8

// benchShipAppend times one shipped ApplyBatch with the ring held below
// capacity (it is rebuilt, off the clock, whenever it would fill) or at it.
func benchShipAppend(b *testing.B, full bool) {
	b.ReportAllocs()
	var e *engine.Engine
	var d *engine.Durable
	muts := make([]engine.Mutation, shipApplyBatch)
	for i := range muts {
		muts[i] = engine.Mutation{Kind: kv.Put, Key: key(i), Value: val(i)}
	}
	apply := func() {
		if err := e.ApplyBatch(muts); err != nil {
			b.Fatal(err)
		}
	}
	room := 0 // batches until the ring is full
	for i := 0; i < b.N; i++ {
		if e == nil || (!full && room == 0) {
			b.StopTimer()
			e, d = newNullEngine(b, engine.DurabilityConfig{LogBytes: 4 << 20})
			if err := e.EnableShipping(0); err != nil {
				b.Fatal(err)
			}
			for i := range muts {
				muts[i].Dict = d
			}
			for full && e.ShipStats().Buffered < engine.DefaultShipCap {
				apply()
			}
			room = engine.DefaultShipCap / shipApplyBatch
			b.StartTimer()
		}
		apply()
		room--
	}
}

func BenchmarkShipAppend(b *testing.B) {
	b.Run("empty", func(b *testing.B) { benchShipAppend(b, false) })
	b.Run("full", func(b *testing.B) { benchShipAppend(b, true) })
}

// TestShipAppendAtCapacityAllocatesLikeBelowIt is the machine-independent
// guard on the commit hook: a full ring reuses its array, so a shipped
// ApplyBatch there may allocate no more than about what it does while the
// ring is still growing. (A ring that copies itself per append allocates
// megabytes here.)
func TestShipAppendAtCapacityAllocatesLikeBelowIt(t *testing.T) {
	below := testing.Benchmark(func(b *testing.B) { benchShipAppend(b, false) }).AllocedBytesPerOp()
	at := testing.Benchmark(func(b *testing.B) { benchShipAppend(b, true) }).AllocedBytesPerOp()
	t.Logf("shipped ApplyBatch of %d: %d B/op below capacity, %d B/op at capacity", shipApplyBatch, below, at)
	if below == 0 || at > 2*below {
		t.Fatalf("at capacity %d B/op, below capacity %d B/op: want at most 2x", at, below)
	}
}

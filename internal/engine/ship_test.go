// Shipping tests: the ship ring's stream semantics (exactly the durable
// records, in order), floor/gap behavior under trimming, backfill on a late
// enable, and the replication centerpiece — a replica engine that applies
// the shipped stream through its own durable write path, is crashed mid-
// apply with storage.FaultStore, and recovers to exactly a committed prefix
// of the stream.

package engine_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"iomodels/internal/btree"
	"iomodels/internal/engine"
	"iomodels/internal/kv"
	"iomodels/internal/sim"
	"iomodels/internal/storage"
	"iomodels/internal/wal"
)

// newShippingPrimary builds a durable B-tree engine with shipping enabled.
func newShippingPrimary(t *testing.T, shipCap int) (*engine.Engine, *engine.Durable) {
	t.Helper()
	e := engine.FromStore(engCfg(), storage.NewFaultStore(flatDev{testCapacity}), sim.New())
	if err := e.EnableDurability(smallDur()); err != nil {
		t.Fatal(err)
	}
	if err := e.EnableShipping(shipCap); err != nil {
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
	return e, d
}

func TestShippingStreamsEveryDurableMutation(t *testing.T) {
	e, d := newShippingPrimary(t, 0)
	const n = 400
	for i := 0; i < n; i++ {
		d.Put(key(i), val(i))
	}
	for i := 0; i < n; i += 7 {
		d.Delete(key(i))
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	want := n + (n+6)/7
	recs, st, err := e.ShipSince(0, want+10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != want {
		t.Fatalf("shipped %d records, want %d", len(recs), want)
	}
	if st.CommittedLSN != uint64(want) {
		t.Fatalf("committed LSN %d, want %d", st.CommittedLSN, want)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d (stream must be gapless and ordered)", i, r.Seq)
		}
	}
	// The stream crosses checkpoint boundaries (smallDur checkpoints every
	// 16KB): records made durable by a checkpoint must ship exactly once too.
	if ds := e.DurabilityStats(); ds.Checkpoints == 0 {
		t.Fatal("test did not cross a checkpoint; stream coverage unexercised")
	}
	// Folding the stream reproduces the primary's state.
	fold := make(map[string][]byte)
	for _, r := range recs {
		switch r.Kind {
		case kv.Put:
			fold[string(r.Key)] = r.Value
		case kv.Tombstone:
			delete(fold, string(r.Key))
		default:
			t.Fatalf("unexpected shipped kind %d", r.Kind)
		}
	}
	for i := 0; i < n; i++ {
		v, ok := fold[string(key(i))]
		pv, pok := d.Get(key(i))
		if ok != pok || !bytes.Equal(v, pv) {
			t.Fatalf("key %d: fold %q,%v vs primary %q,%v", i, v, ok, pv, pok)
		}
	}
}

func TestShipSinceGapAndPaging(t *testing.T) {
	e, d := newShippingPrimary(t, 64)
	const n = 300
	for i := 0; i < n; i++ {
		d.Put(key(i), val(i))
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	// The ring holds 64 records; position 0 is long trimmed.
	_, st, err := e.ShipSince(0, 10)
	if !errors.Is(err, engine.ErrShipGap) {
		t.Fatalf("ShipSince(0) = %v, want ErrShipGap", err)
	}
	if st.FloorLSN != uint64(n-64) {
		t.Fatalf("floor %d, want %d", st.FloorLSN, n-64)
	}
	// From the floor, page through the remainder in small pulls.
	cursor := st.FloorLSN
	var got []engine.ShipRecord
	for {
		recs, _, err := e.ShipSince(cursor, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		got = append(got, recs...)
		cursor = recs[len(recs)-1].Seq
	}
	if len(got) != 64 {
		t.Fatalf("paged %d records, want 64", len(got))
	}
	if got[0].Seq != st.FloorLSN+1 || got[63].Seq != uint64(n) {
		t.Fatalf("paged range [%d..%d], want [%d..%d]", got[0].Seq, got[63].Seq, st.FloorLSN+1, n)
	}
	if ss := e.ShipStats(); !ss.Enabled || ss.Buffered != 64 {
		t.Fatalf("ship stats = %+v", ss)
	}
}

func TestEnableShippingBackfillsTheLogTail(t *testing.T) {
	e := engine.FromStore(engCfg(), storage.NewFaultStore(flatDev{testCapacity}), sim.New())
	// A roomy log with no auto-checkpoint: everything stays in the WAL.
	dcfg := engine.DurabilityConfig{LogBytes: 4 << 20, GroupBytes: 512, JournalBytes: 4 << 20}
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
	const n = 100
	for i := 0; i < n; i++ {
		d.Put(key(i), val(i))
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	// Shipping enabled late: the committed log tail must be available to a
	// from-zero subscriber.
	if err := e.EnableShipping(0); err != nil {
		t.Fatal(err)
	}
	recs, _, err := e.ShipSince(0, n+10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("backfill shipped %d records, want %d", len(recs), n)
	}
}

// applyShipped folds one shipped record into a replica's durable dictionary,
// exactly as the server's replica path does.
func applyShipped(d *engine.Durable, r wal.Record) error {
	switch r.Kind {
	case kv.Put:
		d.Put(r.Key, r.Value)
	case kv.Tombstone:
		d.Delete(r.Key)
	default:
		return fmt.Errorf("unexpected shipped kind %d", r.Kind)
	}
	return nil
}

func TestReplicaAppliesShippedStream(t *testing.T) {
	pe, pd := newShippingPrimary(t, 0)
	const n = 250
	for i := 0; i < n; i++ {
		pd.Put(key(i), val(i))
	}
	for i := 0; i < n; i += 3 {
		pd.Delete(key(i))
	}
	if err := pe.Sync(); err != nil {
		t.Fatal(err)
	}

	re, rd := newShippingPrimary(t, 0) // replicas are shipping-capable too (chaining)
	cursor := uint64(0)
	for {
		recs, _, err := pe.ShipSince(cursor, 31)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			if err := applyShipped(rd, r.Record); err != nil {
				t.Fatal(err)
			}
		}
		cursor = recs[len(recs)-1].Seq
	}
	if err := re.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		pv, pok := pd.Get(key(i))
		rv, rok := rd.Get(key(i))
		if pok != rok || !bytes.Equal(pv, rv) {
			t.Fatalf("key %d: primary %q,%v replica %q,%v", i, pv, pok, rv, rok)
		}
	}
}

// TestReplicaCrashMidShipRecoversCommittedPrefix is the torn-ship crash
// test: a replica applying the shipped stream is crashed at an arbitrary
// device write (with a torn final write), rebooted, and recovered. The
// recovered state must equal the fold of exactly the first CommittedSeq
// shipped records — never a torn suffix, never a lost committed record.
func TestReplicaCrashMidShipRecoversCommittedPrefix(t *testing.T) {
	// Primary: a deterministic stream of puts and deletes.
	pe, pd := newShippingPrimary(t, 0)
	const n = 180
	for i := 0; i < n; i++ {
		pd.Put(key(i), val(i))
		if i%4 == 3 {
			pd.Delete(key(i - 2))
		}
	}
	if err := pe.Sync(); err != nil {
		t.Fatal(err)
	}
	stream, _, err := pe.ShipSince(0, 10*n)
	if err != nil {
		t.Fatal(err)
	}

	for _, crashAt := range []int64{5, 37, 120, 300} {
		t.Run(fmt.Sprintf("crash-write-%d", crashAt), func(t *testing.T) {
			fs := storage.NewFaultStore(flatDev{testCapacity})
			re := engine.FromStore(engCfg(), fs, sim.New())
			dcfg := smallDur()
			if err := re.EnableDurability(dcfg); err != nil {
				t.Fatal(err)
			}
			bt, err := btree.New(btreeCfg(), re)
			if err != nil {
				t.Fatal(err)
			}
			rd, err := re.Durable("bt", bt)
			if err != nil {
				t.Fatal(err)
			}
			fs.CrashAtWrite(crashAt, 13) // tear the final write after 13 bytes

			applied := 0
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(*storage.CrashError); !ok {
							panic(r)
						}
					}
				}()
				for _, r := range stream {
					if err := applyShipped(rd, r.Record); err != nil {
						t.Error(err)
						return
					}
					applied++
				}
				if err := re.Sync(); err != nil {
					t.Error(err)
				}
			}()

			// Reboot on the same byte image and recover.
			fs.ClearFaults()
			re2, rec, err := engine.Recover(engCfg(), dcfg, fs, sim.New())
			if err != nil {
				t.Fatalf("recover after crash at write %d: %v", crashAt, err)
			}
			man, ok := rec.Manifest("bt")
			var bt2 *btree.Tree
			if ok {
				bt2, err = btree.Open(btreeCfg(), re2, man)
			} else {
				bt2, err = btree.New(btreeCfg(), re2)
			}
			if err != nil {
				t.Fatal(err)
			}
			rd2, err := rec.Attach("bt", bt2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rec.Replay(); err != nil {
				t.Fatal(err)
			}
			committed := int(rec.CommittedSeq())
			if committed > applied {
				t.Fatalf("recovered %d records but only %d were applied", committed, applied)
			}
			// The replica's local seqs are 1:1 with the stream prefix (one
			// logged record per applied record, in order), so the recovered
			// state must equal the fold of stream[:committed].
			fold := make(map[string][]byte)
			for _, r := range stream[:committed] {
				switch r.Kind {
				case kv.Put:
					fold[string(r.Key)] = r.Value
				case kv.Tombstone:
					delete(fold, string(r.Key))
				}
			}
			for i := 0; i < n; i++ {
				want, wok := fold[string(key(i))]
				got, gok := rd2.Get(key(i))
				if wok != gok || !bytes.Equal(want, got) {
					t.Fatalf("crash at write %d, committed %d, key %d: got %q,%v want %q,%v",
						crashAt, committed, i, got, gok, want, wok)
				}
			}
		})
	}
}

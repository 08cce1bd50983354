package wal

import (
	"bytes"
	"testing"

	"iomodels/internal/kv"
)

// collectShip installs a commit hook that accumulates shipped records.
func collectShip(l *Log) *[]Record {
	var got []Record
	l.SetOnCommit(func(recs []Record) { got = append(got, recs...) })
	return &got
}

func TestOnCommitShipsExactlyCommittedRecords(t *testing.T) {
	l, _, _ := newTestLog(t, 1<<20)
	got := collectShip(l)
	const n = 50
	for i := 0; i < n; i++ {
		mustAppend(t, l, rec(i))
	}
	if len(*got) != 0 {
		t.Fatalf("hook fired before commit: %d records", len(*got))
	}
	mustCommit(t, l)
	if len(*got) != n {
		t.Fatalf("shipped %d records, want %d", len(*got), n)
	}
	for i, r := range *got {
		want := rec(i)
		if r.Seq != uint64(i+1) || !bytes.Equal(r.Key, want.Key) || !bytes.Equal(r.Value, want.Value) {
			t.Fatalf("shipped record %d mismatch: %+v", i, r)
		}
	}
	// A second commit with nothing pending ships nothing.
	mustCommit(t, l)
	if len(*got) != n {
		t.Fatalf("empty commit shipped records: %d, want %d", len(*got), n)
	}
}

func TestShipRecordsAreDeepCopies(t *testing.T) {
	l, _, _ := newTestLog(t, 1<<20)
	got := collectShip(l)
	key := []byte("mutate-me")
	val := []byte("original")
	if _, err := l.Append(Record{Kind: kv.Put, Key: key, Value: val}); err != nil {
		t.Fatal(err)
	}
	key[0], val[0] = 'X', 'X' // caller reuses its buffers
	mustCommit(t, l)
	r := (*got)[0]
	if !bytes.Equal(r.Key, []byte("mutate-me")) || !bytes.Equal(r.Value, []byte("original")) {
		t.Fatalf("shipped record aliases caller memory: %q=%q", r.Key, r.Value)
	}
}

func TestGroupFillShipsMidAppend(t *testing.T) {
	// A tiny group size makes Append flush internally; the hook must fire on
	// those implicit commits too.
	l, _, _ := newTestLog(t, 64)
	got := collectShip(l)
	for i := 0; i < 20; i++ {
		mustAppend(t, l, rec(i))
	}
	if len(*got) == 0 {
		t.Fatal("implicit group commits shipped nothing")
	}
	mustCommit(t, l)
	if len(*got) != 20 {
		t.Fatalf("shipped %d records, want 20", len(*got))
	}
}

func TestCheckpointCoveringShipsCoveredDropsRest(t *testing.T) {
	l, _, _ := newTestLog(t, 1<<20)
	got := collectShip(l)
	for i := 0; i < 10; i++ {
		mustAppend(t, l, rec(i))
	}
	// Checkpoint covering only the first 7: those become durable through the
	// checkpoint and must ship; 8..10 burned their seqs and are dropped (the
	// engine re-appends them, which re-tails them).
	l.CheckpointCovering(7)
	if len(*got) != 7 {
		t.Fatalf("checkpoint shipped %d records, want 7", len(*got))
	}
	if (*got)[6].Seq != 7 {
		t.Fatalf("last shipped seq %d, want 7", (*got)[6].Seq)
	}
	// Re-append the survivors, as the engine's log-full path does.
	for i := 7; i < 10; i++ {
		mustAppend(t, l, rec(i))
	}
	mustCommit(t, l)
	if len(*got) != 10 {
		t.Fatalf("after re-append, shipped %d records, want 10", len(*got))
	}
}

func TestTailFromSkipsThroughAfter(t *testing.T) {
	l, _, _ := newTestLog(t, 1<<20)
	for i := 0; i < 30; i++ {
		mustAppend(t, l, rec(i))
	}
	mustCommit(t, l)
	var seqs []uint64
	n := l.TailFrom(12, func(r Record) bool {
		seqs = append(seqs, r.Seq)
		return true
	})
	if n != 18 || len(seqs) != 18 {
		t.Fatalf("tailed %d records (cb %d), want 18", n, len(seqs))
	}
	if seqs[0] != 13 || seqs[len(seqs)-1] != 30 {
		t.Fatalf("tail range [%d..%d], want [13..30]", seqs[0], seqs[len(seqs)-1])
	}
	// Uncommitted appends are invisible to TailFrom (it reads the device).
	mustAppend(t, l, rec(30))
	if n := l.TailFrom(30, nil); n != 0 {
		t.Fatalf("TailFrom saw %d uncommitted records", n)
	}
}

func TestSetOnCommitNilClearsTail(t *testing.T) {
	l, _, _ := newTestLog(t, 1<<20)
	got := collectShip(l)
	mustAppend(t, l, rec(0))
	l.SetOnCommit(nil)
	mustCommit(t, l)
	if len(*got) != 0 {
		t.Fatalf("cleared hook still shipped %d records", len(*got))
	}
}

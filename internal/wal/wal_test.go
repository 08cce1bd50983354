package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"iomodels/internal/hdd"
	"iomodels/internal/kv"
	"iomodels/internal/sim"
	"iomodels/internal/storage"
)

func newTestLog(t *testing.T, group int) (*Log, *storage.Disk, *sim.Engine) {
	t.Helper()
	clk := sim.New()
	disk := storage.NewDisk(hdd.NewDeterministic(hdd.DefaultProfile()), clk)
	l, err := New(Config{Offset: 0, Capacity: 8 << 20, GroupBytes: group}, disk)
	if err != nil {
		t.Fatal(err)
	}
	return l, disk, clk
}

func rec(i int) Record {
	return Record{Kind: kv.Put, Key: []byte(fmt.Sprintf("k%06d", i)), Value: []byte(fmt.Sprintf("v%d", i))}
}

func mustAppend(t *testing.T, l *Log, r Record) uint64 {
	t.Helper()
	seq, err := l.Append(r)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	return seq
}

func mustCommit(t *testing.T, l *Log) {
	t.Helper()
	if err := l.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func replayAll(t *testing.T, l *Log) []Record {
	t.Helper()
	var got []Record
	if _, err := l.Replay(func(r Record) bool {
		got = append(got, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestAppendCommitReplay(t *testing.T) {
	l, _, _ := newTestLog(t, 1<<20)
	const n = 500
	for i := 0; i < n; i++ {
		mustAppend(t, l, rec(i))
	}
	mustCommit(t, l)
	got := replayAll(t, l)
	if len(got) != n {
		t.Fatalf("replayed %d, want %d", len(got), n)
	}
	for i, r := range got {
		want := rec(i)
		if r.Kind != want.Kind || !bytes.Equal(r.Key, want.Key) || !bytes.Equal(r.Value, want.Value) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, i+1)
		}
	}
}

func TestGroupCommitBatchesWrites(t *testing.T) {
	l, disk, _ := newTestLog(t, 4096)
	for i := 0; i < 1000; i++ {
		mustAppend(t, l, rec(i))
	}
	mustCommit(t, l)
	c := disk.Counters()
	if c.Writes >= 1000 {
		t.Fatalf("group commit degenerated: %d writes for 1000 records", c.Writes)
	}
	if l.Commits == 0 {
		t.Fatal("no commits counted")
	}
}

func TestSequentialLoggingIsCheap(t *testing.T) {
	// Appends are sequential: total time must be far below one seek per
	// commit group.
	l, disk, clk := newTestLog(t, 16<<10)
	for i := 0; i < 2000; i++ {
		mustAppend(t, l, rec(i))
	}
	mustCommit(t, l)
	c := disk.Counters()
	perWrite := clk.Now().Seconds() / float64(c.Writes)
	seek := hdd.DefaultProfile().ExpectedSetup().Seconds()
	if perWrite > seek/2 {
		t.Fatalf("%.4fs per group write; logging is paying random-IO prices", perWrite)
	}
}

func TestUncommittedNotReplayed(t *testing.T) {
	l, _, _ := newTestLog(t, 1<<20)
	mustAppend(t, l, rec(1))
	mustCommit(t, l)
	mustAppend(t, l, rec(2)) // never committed
	n, _ := l.Replay(nil)
	if n != 1 {
		t.Fatalf("replayed %d, want 1 (uncommitted tail must not appear)", n)
	}
}

func TestTornTailStopsReplay(t *testing.T) {
	l, disk, _ := newTestLog(t, 1<<20)
	for i := 0; i < 100; i++ {
		mustAppend(t, l, rec(i))
	}
	mustCommit(t, l)
	// Corrupt a byte inside the frame payload.
	off := l.frameStart() + l.DurableBytes()/2
	disk.WriteAt([]byte{disk.Read(off, 1)[0] ^ 0xFF}, off)
	n, err := l.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n >= 100 {
		t.Fatalf("replayed %d; want a clean stop", n)
	}
}

func TestCheckpointTruncates(t *testing.T) {
	l, _, _ := newTestLog(t, 4096)
	for i := 0; i < 200; i++ {
		mustAppend(t, l, rec(i))
	}
	l.Checkpoint()
	if l.DurableBytes() != 0 {
		t.Fatalf("durable bytes %d after checkpoint", l.DurableBytes())
	}
	if n, _ := l.Replay(nil); n != 0 {
		t.Fatalf("replayed %d after checkpoint", n)
	}
	// Log is reusable, and replay yields only the new records.
	seq := mustAppend(t, l, rec(999))
	mustCommit(t, l)
	got := replayAll(t, l)
	if len(got) != 1 || got[0].Seq != seq {
		t.Fatalf("replayed %+v after reuse, want 1 record with seq %d", got, seq)
	}
}

func TestReplayEarlyStop(t *testing.T) {
	l, _, _ := newTestLog(t, 1<<20)
	for i := 0; i < 10; i++ {
		mustAppend(t, l, rec(i))
	}
	mustCommit(t, l)
	count := 0
	l.Replay(func(Record) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop at %d", count)
	}
}

// TestReopenReplaysCommitted is the crash-recovery core: a log reattached
// with Open (all in-memory state lost) must replay exactly the committed
// records.
func TestReopenReplaysCommitted(t *testing.T) {
	l, disk, _ := newTestLog(t, 1<<20)
	const n = 64
	for i := 0; i < n; i++ {
		mustAppend(t, l, rec(i))
	}
	mustCommit(t, l)
	mustAppend(t, l, rec(n)) // uncommitted: must not survive

	reopened, err := Open(l.cfg, disk)
	if err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, reopened)
	if len(got) != n {
		t.Fatalf("reopened log replayed %d records, want %d", len(got), n)
	}
	if reopened.LastSeq() != uint64(n) {
		t.Fatalf("reopened LastSeq %d, want %d", reopened.LastSeq(), n)
	}
	// Appending after reopen continues the sequence and replays cleanly.
	seq := mustAppend(t, reopened, rec(n+1))
	if seq != uint64(n+1) {
		t.Fatalf("post-reopen seq %d, want %d", seq, n+1)
	}
	mustCommit(t, reopened)
	if got := replayAll(t, reopened); len(got) != n+1 {
		t.Fatalf("replayed %d after post-reopen append, want %d", len(got), n+1)
	}
}

// TestReopenAfterCheckpointRegression is the replay-after-reopen bug from
// the issue: append records, checkpoint, append FEWER bytes than before,
// reopen, replay. The pre-checkpoint records are still on the device past
// the new head with valid CRCs; a scan that trusts checksums alone would
// resurrect them. The epoch seal must reject them.
func TestReopenAfterCheckpointRegression(t *testing.T) {
	l, disk, _ := newTestLog(t, 1<<20)
	for i := 0; i < 100; i++ {
		mustAppend(t, l, rec(i))
	}
	mustCommit(t, l)
	l.Checkpoint()
	const after = 3 // far fewer bytes than the 100 pre-checkpoint records
	var wantSeqs []uint64
	for i := 0; i < after; i++ {
		wantSeqs = append(wantSeqs, mustAppend(t, l, rec(1000+i)))
	}
	mustCommit(t, l)

	reopened, err := Open(l.cfg, disk)
	if err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, reopened)
	if len(got) != after {
		t.Fatalf("replayed %d records after reopen, want %d (stale pre-checkpoint records resurrected)", len(got), after)
	}
	for i, r := range got {
		if want := []byte(fmt.Sprintf("k%06d", 1000+i)); !bytes.Equal(r.Key, want) {
			t.Fatalf("record %d is %q, want %q", i, r.Key, want)
		}
		if r.Seq != wantSeqs[i] {
			t.Fatalf("record %d seq %d, want %d", i, r.Seq, wantSeqs[i])
		}
	}
}

// TestTornTailFuzz corrupts and truncates the last commit group at every
// byte offset: replay must always recover exactly the earlier groups and
// never error, panic, or resurrect garbage.
func TestTornTailFuzz(t *testing.T) {
	l, disk, _ := newTestLog(t, 1<<20)
	counts := []int{10, 10, 7}
	i := 0
	var heads []int64
	for _, n := range counts {
		for j := 0; j < n; j++ {
			mustAppend(t, l, rec(i))
			i++
		}
		mustCommit(t, l)
		heads = append(heads, l.DurableBytes())
	}
	nEarlier := counts[0] + counts[1]
	lastStart, lastEnd := heads[1], heads[2]
	// Pristine image of the last frame.
	pristine := disk.Read(l.frameStart()+lastStart, int(lastEnd-lastStart))
	restore := func() { disk.WriteAt(pristine, l.frameStart()+lastStart) }

	for off := lastStart; off < lastEnd; off++ {
		// Corrupt one byte.
		disk.WriteAt([]byte{disk.Read(l.frameStart()+off, 1)[0] ^ 0x40}, l.frameStart()+off)
		re, err := Open(l.cfg, disk)
		if err != nil {
			t.Fatalf("corrupt@%d: open: %v", off, err)
		}
		if n, _ := re.Replay(nil); n != nEarlier {
			t.Fatalf("corrupt@%d: replayed %d, want %d", off, n, nEarlier)
		}
		restore()

		// Truncate: zero from off to the end of the frame (torn write).
		zero := make([]byte, lastEnd-off)
		disk.WriteAt(zero, l.frameStart()+off)
		re, err = Open(l.cfg, disk)
		if err != nil {
			t.Fatalf("torn@%d: open: %v", off, err)
		}
		if n, _ := re.Replay(nil); n != nEarlier {
			t.Fatalf("torn@%d: replayed %d, want %d", off, n, nEarlier)
		}
		restore()
	}
	// Sanity: the untouched image replays everything.
	re, err := Open(l.cfg, disk)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := re.Replay(nil); n != nEarlier+counts[2] {
		t.Fatalf("pristine image replayed %d, want %d", n, nEarlier+counts[2])
	}
}

// TestTornHeaderFallsBack: a checkpoint whose header write tears must leave
// the previous epoch's log replayable.
func TestTornHeaderFallsBack(t *testing.T) {
	l, disk, _ := newTestLog(t, 1<<20)
	for i := 0; i < 20; i++ {
		mustAppend(t, l, rec(i))
	}
	mustCommit(t, l)
	// Simulate a torn header: corrupt the alternate slot (where the next
	// checkpoint would land) with a half-written higher-epoch header.
	junk := make([]byte, headerBytes)
	var e kv.Enc
	e.U32(headerMagic)
	e.U64(l.epoch + 1)
	copy(junk, e.Buf) // no startSeq, bad CRC: torn mid-write
	disk.WriteAt(junk, l.cfg.Offset+int64(l.slot^1)*headerBytes)

	re, err := Open(l.cfg, disk)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := re.Replay(nil); n != 20 {
		t.Fatalf("replayed %d with torn header, want 20", n)
	}
}

func TestLogFullReturnsTypedError(t *testing.T) {
	clk := sim.New()
	disk := storage.NewDisk(hdd.NewDeterministic(hdd.DefaultProfile()), clk)
	l, err := New(Config{Offset: 0, Capacity: 512, GroupBytes: 64}, disk)
	if err != nil {
		t.Fatal(err)
	}
	var full error
	n := 0
	for i := 0; i < 100; i++ {
		if _, err := l.Append(rec(i)); err != nil {
			full = err
			break
		}
		n++
	}
	if !errors.Is(full, ErrLogFull) {
		t.Fatalf("filling the log returned %v, want ErrLogFull", full)
	}
	// The engine's contract: checkpoint, then the log accepts records again.
	l.Checkpoint()
	if _, err := l.Append(rec(9999)); err != nil {
		t.Fatalf("append after checkpoint: %v", err)
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("commit after checkpoint: %v", err)
	}
	if got := replayAll(t, l); len(got) != 1 {
		t.Fatalf("replayed %d after recovery from full log, want 1", len(got))
	}
}

func TestInvalidConfig(t *testing.T) {
	clk := sim.New()
	disk := storage.NewDisk(hdd.NewDeterministic(hdd.DefaultProfile()), clk)
	if _, err := New(Config{}, disk); err == nil {
		t.Fatal("zero config accepted")
	}
	// A region that cannot fit a single commit group is a config error, not
	// a runtime panic.
	if _, err := New(Config{Offset: 0, Capacity: 128, GroupBytes: 1 << 20}, disk); err == nil {
		t.Fatal("group larger than the log accepted")
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	l, _, _ := newTestLog(t, 4096)
	if _, err := l.Append(Record{Kind: kv.Put}); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestOpenOnGarbageFails(t *testing.T) {
	clk := sim.New()
	disk := storage.NewDisk(hdd.NewDeterministic(hdd.DefaultProfile()), clk)
	junk := bytes.Repeat([]byte{0xAB}, 4096)
	disk.WriteAt(junk, 0)
	if _, err := Open(Config{Offset: 0, Capacity: 8 << 20, GroupBytes: 4096}, disk); err == nil {
		t.Fatal("Open on a non-log region succeeded")
	}
}

// TestLoggingWriteAmplification quantifies the §3 remark: attaching a WAL
// to an update stream adds ~1x of logical bytes in sequential writes on top
// of the structure's own amplification.
func TestLoggingWriteAmplification(t *testing.T) {
	l, disk, _ := newTestLog(t, 64<<10)
	var logical int64
	val := bytes.Repeat([]byte{7}, 100)
	for i := 0; i < 5000; i++ {
		r := Record{Kind: kv.Put, Key: []byte(fmt.Sprintf("k%06d", i)), Value: val}
		logical += int64(len(r.Key) + len(r.Value))
		mustAppend(t, l, r)
	}
	mustCommit(t, l)
	c := disk.Counters()
	overhead := float64(c.BytesWritten) / float64(logical)
	if overhead < 1 || overhead > 2 {
		t.Fatalf("log write overhead %.2fx of logical bytes; want ~1-2x", overhead)
	}
}

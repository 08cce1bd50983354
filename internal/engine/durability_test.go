// Crash-consistency tests: checkpoint/recover round trips for all three
// recoverable trees, the log-full checkpoint-and-retry path, and the
// centerpiece — a testing/quick property test that crashes a durable B-tree
// at a random write (with a random torn-write prefix), recovers, and
// checks the recovered tree equals the model folded over exactly the
// committed operation prefix.
//
// The package is engine_test so the trees can be imported without a cycle.

package engine_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"iomodels/internal/betree"
	"iomodels/internal/btree"
	"iomodels/internal/engine"
	"iomodels/internal/kv"
	"iomodels/internal/lsm"
	"iomodels/internal/sim"
	"iomodels/internal/storage"
	"iomodels/internal/wal"
)

// flatDev is a stateless timing device: every IO takes 100µs. Statelessness
// matters because recovery reopens the same byte image under a fresh clock.
type flatDev struct{ capacity int64 }

func (d flatDev) Access(now sim.Time, _ storage.Op, _, _ int64) sim.Time {
	return now + 100*sim.Microsecond
}
func (d flatDev) Capacity() int64 { return d.capacity }
func (d flatDev) Name() string    { return "flat" }

const testCapacity = 256 << 20

func btreeCfg() btree.Config {
	return btree.Config{NodeBytes: 4 << 10, MaxKeyBytes: 64, MaxValueBytes: 256}
}

// smallDur keeps the log and checkpoint interval tiny so short tests cross
// group-commit and checkpoint boundaries many times.
func smallDur() engine.DurabilityConfig {
	return engine.DurabilityConfig{
		LogBytes:             1 << 20,
		GroupBytes:           512,
		JournalBytes:         4 << 20,
		CheckpointEveryBytes: 16 << 10,
	}
}

// copyingStore returns a private copy from every read instead of a view of
// the image.
type copyingStore struct{ storage.ByteStore }

func (s copyingStore) Read(now sim.Time, off int64, n int) ([]byte, sim.Time) {
	p, done := s.ByteStore.Read(now, off, n)
	return bytes.Clone(p), done
}

func key(i int) []byte      { return []byte(fmt.Sprintf("key-%04d", i)) }
func val(i int) []byte      { return []byte(fmt.Sprintf("value-%06d", i)) }
func engCfg() engine.Config { return engine.Config{CacheBytes: 1 << 20} }

// TestDurableBTreeRecoverRoundTrip: load through the durable wrapper, sync,
// "crash" by discarding every in-memory structure, recover on the same byte
// image, and expect every committed key back.
func TestDurableBTreeRecoverRoundTrip(t *testing.T) {
	fs := storage.NewFaultStore(flatDev{testCapacity})
	e := engine.FromStore(engCfg(), fs, sim.New())
	dcfg := smallDur()
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
	const n = 500
	for i := 0; i < n; i++ {
		d.Put(key(i), val(i))
	}
	for i := 0; i < n; i += 5 {
		d.Delete(key(i))
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := e.DurabilityStats(); st.Checkpoints < 2 || st.Err != nil {
		t.Fatalf("stats = %+v, want >= 2 checkpoints and no error", st)
	}

	e2, r, err := engine.Recover(engCfg(), dcfg, fs, sim.New())
	if err != nil {
		t.Fatal(err)
	}
	man, ok := r.Manifest("bt")
	if !ok {
		t.Fatalf("manifest missing; dicts = %v", r.Dicts())
	}
	bt2, err := btree.Open(btreeCfg(), e2, man)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := r.Attach("bt", bt2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Replay(); err != nil {
		t.Fatal(err)
	}
	if got, want := r.CommittedSeq(), uint64(n+n/5); got != want {
		t.Fatalf("CommittedSeq = %d, want %d", got, want)
	}
	for i := 0; i < n; i++ {
		v, ok := d2.Get(key(i))
		if i%5 == 0 {
			if ok {
				t.Fatalf("key %d: deleted key resurfaced", i)
			}
			continue
		}
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("key %d: got %q,%v want %q", i, v, ok, val(i))
		}
	}
	if err := bt2.Check(); err != nil {
		t.Fatalf("recovered tree invariants: %v", err)
	}
}

// TestDurableBeTreeUpsertRecover: the Bε-tree's blind upsert must be
// materialized by the wrapper (logged as a Put of the post-image) so replay
// never double-applies a delta.
func TestDurableBeTreeUpsertRecover(t *testing.T) {
	fs := storage.NewFaultStore(flatDev{testCapacity})
	e := engine.FromStore(engCfg(), fs, sim.New())
	dcfg := smallDur()
	if err := e.EnableDurability(dcfg); err != nil {
		t.Fatal(err)
	}
	bcfg := betree.Config{
		NodeBytes: 16 << 10, MaxFanout: 8, MaxKeyBytes: 64, MaxValueBytes: 64,
	}.Optimized()
	bt, err := betree.New(bcfg, e)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Durable("be", bt)
	if err != nil {
		t.Fatal(err)
	}
	const counters = 50
	want := make(map[string]int64)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("ctr-%02d", rng.Intn(counters))
		delta := int64(rng.Intn(9) - 4)
		d.Upsert([]byte(k), delta)
		want[k] += delta
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}

	e2, r, err := engine.Recover(engCfg(), dcfg, fs, sim.New())
	if err != nil {
		t.Fatal(err)
	}
	man, _ := r.Manifest("be")
	bt2, err := betree.Open(bcfg, e2, man)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := r.Attach("be", bt2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Replay(); err != nil {
		t.Fatal(err)
	}
	for k, sum := range want {
		v, ok := d2.Get([]byte(k))
		got := int64(0)
		if ok {
			got = int64FromBytes(v)
		}
		if got != sum {
			t.Fatalf("counter %s = %d, want %d", k, got, sum)
		}
	}
	if err := bt2.Check(); err != nil {
		t.Fatalf("recovered tree invariants: %v", err)
	}
}

func int64FromBytes(b []byte) int64 {
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return int64(v)
}

// TestDurableLSMRecoverRoundTrip: the LSM's memtable is volatile state
// outside the engine; its Checkpoint must flush it, and post-checkpoint
// records must replay into a fresh memtable.
func TestDurableLSMRecoverRoundTrip(t *testing.T) {
	fs := storage.NewFaultStore(flatDev{testCapacity})
	e := engine.FromStore(engCfg(), fs, sim.New())
	dcfg := smallDur()
	if err := e.EnableDurability(dcfg); err != nil {
		t.Fatal(err)
	}
	lcfg := lsm.Config{
		MemtableBytes: 8 << 10,
		SSTableBytes:  16 << 10,
		GrowthFactor:  4,
		Level0Runs:    2,
		BlockBytes:    2 << 10,
	}
	lt, err := lsm.New(lcfg, e)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Durable("lsm", lt)
	if err != nil {
		t.Fatal(err)
	}
	const n = 800
	for i := 0; i < n; i++ {
		d.Put(key(i%300), val(i)) // overwrites exercise compaction
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}

	e2, r, err := engine.Recover(engCfg(), dcfg, fs, sim.New())
	if err != nil {
		t.Fatal(err)
	}
	man, _ := r.Manifest("lsm")
	lt2, err := lsm.Open(lcfg, e2, man)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := r.Attach("lsm", lt2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Replay(); err != nil {
		t.Fatal(err)
	}
	// Last writer wins: key i%300 last written at the largest j == i mod 300.
	for k := 0; k < 300; k++ {
		last := k
		for j := k; j < n; j += 300 {
			last = j
		}
		v, ok := d2.Get(key(k))
		if !ok || !bytes.Equal(v, val(last)) {
			t.Fatalf("key %d: got %q,%v want %q", k, v, ok, val(last))
		}
	}
}

// TestRecoveryReleasesTableRecord: decoded fields are views of the bytes
// they were decoded from, so anything recovery leaves in a live structure
// would keep the whole table record alive. The manifests are copied out and
// the translation table decoded into the engine's own entries, so once Replay
// returns the record is garbage even while the recovered engine and trees
// (the LSM keeps key ranges and block index keys from its manifest) stay in
// use. The store lends views of an image it keeps, so recovery here runs on a
// store whose every read returns a private copy: what stays reachable is what
// recovery kept.
func TestRecoveryReleasesTableRecord(t *testing.T) {
	fs := storage.NewFaultStore(flatDev{testCapacity})
	e := engine.FromStore(engCfg(), fs, sim.New())
	dcfg := smallDur()
	if err := e.EnableDurability(dcfg); err != nil {
		t.Fatal(err)
	}
	lcfg := lsm.Config{MemtableBytes: 8 << 10, SSTableBytes: 16 << 10, GrowthFactor: 4, Level0Runs: 2, BlockBytes: 2 << 10}
	bcfg := betree.Config{NodeBytes: 16 << 10, MaxFanout: 8, MaxKeyBytes: 64, MaxValueBytes: 64}.Optimized()
	lt, err := lsm.New(lcfg, e)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := betree.New(bcfg, e)
	if err != nil {
		t.Fatal(err)
	}
	dl, err := e.Durable("lsm", lt)
	if err != nil {
		t.Fatal(err)
	}
	db, err := e.Durable("be", bt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200; i++ {
		dl.Put(key(i%400), val(i))
		db.Put(key(i%400), key(i))
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}

	freed := make(chan struct{})
	engine.SetTableLoaded(func(record []byte) {
		runtime.SetFinalizer(&record[0], func(*byte) { close(freed) })
	})
	defer engine.SetTableLoaded(nil)
	e2, r, err := engine.Recover(engCfg(), dcfg, copyingStore{fs}, sim.New())
	if err != nil {
		t.Fatal(err)
	}
	lman, _ := r.Manifest("lsm")
	lt2, err := lsm.Open(lcfg, e2, lman)
	if err != nil {
		t.Fatal(err)
	}
	bman, _ := r.Manifest("be")
	bt2, err := betree.Open(bcfg, e2, bman)
	if err != nil {
		t.Fatal(err)
	}
	dl2, err := r.Attach("lsm", lt2)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := r.Attach("be", bt2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Replay(); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(5 * time.Second)
	for released := false; !released; {
		runtime.GC()
		select {
		case <-freed:
			released = true
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatal("the table record is still reachable after recovery")
		}
	}
	for k := 0; k < 400; k++ {
		if v, ok := dl2.Get(key(k)); !ok || !bytes.Equal(v, val(800+k)) {
			t.Fatalf("lsm key %d: got %q,%v want %q", k, v, ok, val(800+k))
		}
		if v, ok := db2.Get(key(k)); !ok || !bytes.Equal(v, key(800+k)) {
			t.Fatalf("betree key %d: got %q,%v want %q", k, v, ok, key(800+k))
		}
	}
	runtime.KeepAlive(r)
}

// TestLogFullCheckpointRetry: a log too small for the workload must recycle
// itself through checkpoints transparently — no error surfaces, nothing is
// lost — exercising the ErrLogFull → checkpoint → re-append path.
func TestLogFullCheckpointRetry(t *testing.T) {
	fs := storage.NewFaultStore(flatDev{testCapacity})
	e := engine.FromStore(engCfg(), fs, sim.New())
	dcfg := engine.DurabilityConfig{
		LogBytes:             8 << 10, // tiny: forces log-full cycling
		GroupBytes:           1 << 10,
		JournalBytes:         4 << 20,
		CheckpointEveryBytes: -1, // no auto-checkpoints: only log-full ones
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
	const n = 400
	for i := 0; i < n; i++ {
		d.Put(key(i), val(i))
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	st := e.DurabilityStats()
	if st.Err != nil {
		t.Fatalf("durability error: %v", st.Err)
	}
	if st.Checkpoints < 2 {
		t.Fatalf("checkpoints = %d, want >= 2 (log must have filled)", st.Checkpoints)
	}

	e2, r, err := engine.Recover(engCfg(), dcfg, fs, sim.New())
	if err != nil {
		t.Fatal(err)
	}
	man, _ := r.Manifest("bt")
	bt2, err := openBTree(e2, man)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := r.Attach("bt", bt2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Replay(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if v, ok := d2.Get(key(i)); !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("key %d lost across log-full checkpoints", i)
		}
	}
}

// crashCase is the quick-generated input of the crash property test.
type crashCase struct {
	Seed    int64
	Ops     uint16 // number of operations (bounded below)
	CrashAt uint16 // write ordinal to crash on, counted after setup
	Tear    uint8  // bytes of the fatal write that reach the medium
}

// op is one scripted mutation.
type crashOp struct {
	del bool
	key []byte
	val []byte
}

// apply runs ops through d.
func apply(d *engine.Durable, ops []crashOp) {
	for _, op := range ops {
		if op.del {
			d.Delete(op.key)
		} else {
			d.Put(op.key, op.val)
		}
	}
}

// crashTree is a recoverable tree the crash tests drive: Flush writes its
// dirty pages back, Check verifies its invariants.
type crashTree interface {
	engine.Dictionary
	Flush()
	Check() error
}

// opener builds a tree on e from its checkpoint manifest, or an empty one
// from a nil manifest.
type opener func(e *engine.Engine, man []byte) (crashTree, error)

func openBTree(e *engine.Engine, man []byte) (crashTree, error) {
	if man == nil {
		return btree.New(btreeCfg(), e)
	}
	return btree.Open(btreeCfg(), e, man)
}

func openBeTree(e *engine.Engine, man []byte) (crashTree, error) {
	cfg := betree.Config{NodeBytes: 16 << 10, MaxFanout: 8, MaxKeyBytes: 64, MaxValueBytes: 64}.Optimized()
	if man == nil {
		return betree.New(cfg, e)
	}
	return betree.Open(cfg, e, man)
}

// sealGuard is a byte store that fails the test on any write into an extent
// the newest valid superblock on the medium references: the write rule's
// invariant, checked against the image rather than the engine's own
// bookkeeping. It reads the referenced set again after each superblock write.
type sealGuard struct {
	storage.ByteStore
	t      *testing.T
	medium storage.ByteStore // the image, read without the fault layer
	sealed [][2]int64
}

func (g *sealGuard) WriteAt(now sim.Time, p []byte, off int64) sim.Time {
	g.check(off, len(p))
	done := g.ByteStore.WriteAt(now, p, off)
	g.reload(off)
	return done
}

func (g *sealGuard) Handover(now sim.Time, p []byte, off int64) sim.Time {
	g.check(off, len(p))
	done := g.ByteStore.Handover(now, p, off)
	g.reload(off)
	return done
}

func (g *sealGuard) check(off int64, n int) {
	for _, x := range g.sealed {
		if off < x[0]+x[1] && x[0] < off+int64(n) {
			g.t.Errorf("a write of %d bytes at %d lands in the sealed extent [%d, %d)", n, off, x[0], x[0]+x[1])
		}
	}
}

func (g *sealGuard) reload(off int64) {
	if off < engine.SuperRegionBytes {
		g.sealed = engine.SealedExtents(g.medium)
	}
}

// TestCrashRecoverEqualsCommittedPrefix is the headline property: whatever
// write the machine dies on — torn mid-frame or clean — recovery yields
// exactly the state of the committed operation prefix, no more, no less. The
// store sits behind a sealGuard, so no write of the run may touch what the
// last seal references.
//
// Sequence numbers equal operation indexes + 1 here because LogBytes is
// large enough that the log never fills (no burned sequence numbers), so
// CommittedSeq directly identifies the committed prefix length.
func TestCrashRecoverEqualsCommittedPrefix(t *testing.T) {
	cfg := quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	prop := func(c crashCase) bool { return runCrashCase(t, c) }
	if err := quick.Check(prop, &cfg); err != nil {
		t.Fatal(err)
	}
}

func runCrashCase(t *testing.T, c crashCase) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(c.Seed))
	nOps := 50 + int(c.Ops)%400
	const keyspace = 48
	ops := make([]crashOp, nOps)
	for i := range ops {
		k := key(rng.Intn(keyspace))
		if rng.Intn(4) == 0 {
			ops[i] = crashOp{del: true, key: k}
		} else {
			ops[i] = crashOp{key: k, val: val(rng.Intn(1 << 20))}
		}
	}

	fs := storage.NewFaultStore(flatDev{testCapacity})
	e := engine.FromStore(engCfg(), &sealGuard{ByteStore: fs, t: t, medium: fs.Inner()}, sim.New())
	dcfg := engine.DurabilityConfig{
		LogBytes:             8 << 20, // never fills: seq == op index + 1
		GroupBytes:           256 + rng.Intn(512),
		JournalBytes:         4 << 20,
		CheckpointEveryBytes: 4<<10 + int64(rng.Intn(8<<10)),
	}
	if err := e.EnableDurability(dcfg); err != nil {
		t.Fatalf("enable: %v", err)
	}
	bt, err := btree.New(btreeCfg(), e)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	d, err := e.Durable("bt", bt)
	if err != nil {
		t.Fatalf("durable: %v", err)
	}

	// Arm the crash relative to the workload's first write, then run until
	// the machine dies (or the script ends — then sync, so everything is
	// committed).
	crashN := 1 + int64(c.CrashAt)%600
	fs.CrashAtWrite(crashN, int(c.Tear))
	crashed := runUntilCrash(func() {
		apply(d, ops)
		if err := e.Sync(); err != nil {
			t.Fatalf("sync: %v", err)
		}
	})
	fs.ClearFaults() // reboot: byte image survives, volatile state gone

	recoverAndCheckPrefix(t, fs, engCfg(), dcfg, openBTree, ops, crashed, fmt.Sprintf("crash at write %d (tear %d)", crashN, c.Tear))
	return true
}

// recoverAndCheckPrefix reopens fs's image and requires the recovered tree
// "bt" to equal the model folded over exactly the first CommittedSeq ops —
// all of them if the run did not crash.
func recoverAndCheckPrefix(t *testing.T, fs *storage.FaultStore, ecfg engine.Config, dcfg engine.DurabilityConfig, open opener, ops []crashOp, crashed bool, what string) {
	t.Helper()
	e2, r, err := engine.Recover(ecfg, dcfg, fs, sim.New())
	if err != nil {
		t.Fatalf("recover (%s): %v", what, err)
	}
	// A crash before the first post-registration checkpoint recovers to the
	// initial (empty) checkpoint, which has no manifest: the tree restarts
	// empty and replay rebuilds the committed prefix from the WAL alone.
	man, _ := r.Manifest("bt")
	tree, err := open(e2, man)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	d2, err := r.Attach("bt", tree)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if _, err := r.Replay(); err != nil {
		t.Fatalf("replay: %v", err)
	}

	committed := int(r.CommittedSeq())
	if committed > len(ops) {
		t.Fatalf("CommittedSeq %d exceeds %d issued ops", committed, len(ops))
	}
	if !crashed && committed != len(ops) {
		t.Fatalf("clean run committed %d of %d ops", committed, len(ops))
	}

	// Model: fold exactly the committed prefix; every key any op touched must
	// read back as the model has it, present or absent.
	model := make(map[string][]byte)
	for _, op := range ops[:committed] {
		if op.del {
			delete(model, string(op.key))
		} else {
			model[string(op.key)] = op.val
		}
	}
	checked := make(map[string]bool)
	for _, op := range ops {
		if checked[string(op.key)] {
			continue
		}
		checked[string(op.key)] = true
		want, wantOK := model[string(op.key)]
		got, gotOK := d2.Get(op.key)
		if wantOK != gotOK || !bytes.Equal(got, want) {
			t.Fatalf("%s, committed %d/%d: key %q got %q,%v want %q,%v",
				what, committed, len(ops), op.key, got, gotOK, want, wantOK)
		}
	}
	if err := tree.Check(); err != nil {
		t.Fatalf("recovered tree invariants: %v", err)
	}
}

// TestTornWriteBackOutsideCheckpoint: a tree's own Flush writes dirty pages
// back between checkpoints, here after two checkpoints in a row, so the last
// seal references every page and holds no copy of any. The write rule sends
// each of them to a fresh extent, so tearing the first write leaves the
// sealed checkpoint whole and recovery yields every committed op. (Written in
// place over its sealed extent, the torn page fails to decode on reload.)
func TestTornWriteBackOutsideCheckpoint(t *testing.T) {
	const n = 300
	for _, c := range []struct {
		name string
		open opener
	}{{"btree", openBTree}, {"betree", openBeTree}} {
		t.Run(c.name, func(t *testing.T) {
			fs := storage.NewFaultStore(flatDev{testCapacity})
			e := engine.FromStore(engCfg(), fs, sim.New())
			dcfg := smallDur()
			dcfg.CheckpointEveryBytes = -1
			if err := e.EnableDurability(dcfg); err != nil {
				t.Fatal(err)
			}
			tree, err := c.open(e, nil)
			if err != nil {
				t.Fatal(err)
			}
			d, err := e.Durable("bt", tree)
			if err != nil {
				t.Fatal(err)
			}
			ops := make([]crashOp, n+1)
			for i := range ops {
				ops[i] = crashOp{key: key(i), val: val(i)}
			}
			apply(d, ops[:n])
			for i := 0; i < 2; i++ {
				if err := e.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			apply(d, ops[n:])
			if err := e.Sync(); err != nil {
				t.Fatal(err)
			}
			fs.CrashAtWrite(1, 300)
			if !runUntilCrash(tree.Flush) {
				t.Fatal("the write-back issued no write")
			}
			fs.ClearFaults()
			recoverAndCheckPrefix(t, fs, engCfg(), dcfg, c.open, ops, true, "write-back torn at byte 300")
		})
	}
}

// writeLog records the offset and length of every write on its way to the
// store.
type writeLog struct {
	storage.ByteStore
	writes [][2]int64
}

func (w *writeLog) WriteAt(now sim.Time, p []byte, off int64) sim.Time {
	w.writes = append(w.writes, [2]int64{off, int64(len(p))})
	return w.ByteStore.WriteAt(now, p, off)
}

func (w *writeLog) Handover(now sim.Time, p []byte, off int64) sim.Time {
	w.writes = append(w.writes, [2]int64{off, int64(len(p))})
	return w.ByteStore.Handover(now, p, off)
}

// ckptScenario is a deterministic durable B-tree run that stops just before
// one more checkpoint: ops[:split] and a checkpoint, ops[split:synced] and a
// sync, then ops[synced:], which group commit may or may not have made
// durable.
type ckptScenario struct {
	ecfg          engine.Config
	dcfg          engine.DurabilityConfig
	ops           []crashOp
	split, synced int
}

// run plays the scenario on a fresh fault store, behind a sealGuard and a
// writeLog.
func (sc ckptScenario) run(t *testing.T) (*storage.FaultStore, *writeLog, *engine.Engine) {
	t.Helper()
	fs := storage.NewFaultStore(flatDev{testCapacity})
	wl := &writeLog{ByteStore: &sealGuard{ByteStore: fs, t: t, medium: fs.Inner()}}
	e := engine.FromStore(sc.ecfg, wl, sim.New())
	if err := e.EnableDurability(sc.dcfg); err != nil {
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
	apply(d, sc.ops[:sc.split])
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	apply(d, sc.ops[sc.split:sc.synced])
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	apply(d, sc.ops[sc.synced:])
	return fs, wl, e
}

// checkpointWrites plays the scenario through its last checkpoint and
// returns that checkpoint's writes, with the index of its superblock write.
func (sc ckptScenario) checkpointWrites(t *testing.T) ([][2]int64, int) {
	t.Helper()
	_, wl, e := sc.run(t)
	n := len(wl.writes)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writes := wl.writes[n:]
	super := slices.IndexFunc(writes, func(w [2]int64) bool { return w[0] < engine.SuperRegionBytes })
	if super < 2 {
		t.Fatalf("the checkpoint's writes %v have no page write-backs and table record before a superblock", writes)
	}
	return writes, super
}

// crashIn plays the scenario again, crashes its last checkpoint at write k
// (from 1) with tear bytes of it reaching the medium, and requires recovery
// to equal the committed prefix.
func (sc ckptScenario) crashIn(t *testing.T, k, tear int, what string) {
	t.Helper()
	fs, _, e := sc.run(t)
	fs.CrashAtWrite(int64(k), tear)
	if !runUntilCrash(func() { _ = e.Checkpoint() }) {
		t.Fatalf("%s: the armed crash did not fire", what)
	}
	fs.ClearFaults()
	recoverAndCheckPrefix(t, fs, sc.ecfg, sc.dcfg, openBTree, sc.ops, true, what)
}

// TestCrashSweepOneCheckpoint crashes one checkpoint at every write it
// issues — each page write-back, the table record, the superblock and the
// WAL truncation — once cleanly after the write and once torn halfway
// through it, and requires every recovery to equal the committed prefix.
func TestCrashSweepOneCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const keyspace = 1200
	ops := make([]crashOp, 0, keyspace+320)
	for i := 0; i < keyspace; i++ {
		ops = append(ops, crashOp{key: key(i), val: val(i)})
	}
	for i := 0; i < 320; i++ {
		k := key(rng.Intn(keyspace))
		if i%5 == 0 {
			ops = append(ops, crashOp{del: true, key: k})
		} else {
			ops = append(ops, crashOp{key: k, val: val(rng.Intn(1 << 20))})
		}
	}
	dcfg := smallDur()
	dcfg.CheckpointEveryBytes = -1
	sc := ckptScenario{ecfg: engCfg(), dcfg: dcfg, ops: ops, split: keyspace, synced: keyspace + 300}
	writes, super := sc.checkpointWrites(t)
	t.Logf("%d writes: %d page write-backs, the table record, the superblock, %d of the WAL's", len(writes), super-1, len(writes)-super-1)
	for k, w := range writes {
		for _, tear := range []int{1 << 30, int(w[1]) / 2} {
			sc.crashIn(t, k+1, tear, fmt.Sprintf("write %d of %d (%d bytes at %d), %d bytes down",
				k+1, len(writes), w[1], w[0], min(tear, int(w[1]))))
		}
	}
}

// TestCrashTornSealAcrossChunks aims the same property at the seal. The
// checkpoint writes back a dirty set of hundreds of pages — every leaf of a
// 40,000-key B-tree, dirtied again since the last checkpoint — so its table
// record spans several of the store's blocks. It is crashed twice: in the
// table record, torn a few bytes past the record's first block boundary, and
// in the superblock, torn mid-header over a slot that held an older valid
// seal. Recovery must reject the torn seal, fall back to the other slot's
// checkpoint and replay the WAL to exactly the committed prefix.
func TestCrashTornSealAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const keyspace = 40000
	ops := make([]crashOp, 0, 2*keyspace+500)
	for i := 0; i < 2*keyspace; i++ {
		ops = append(ops, crashOp{key: []byte(fmt.Sprintf("key-%06d", i%keyspace)), val: val(i)})
	}
	synced := len(ops)
	for i := 0; i < 500; i++ { // the unsynced tail: group commit decides its fate
		k := []byte(fmt.Sprintf("key-%06d", rng.Intn(keyspace)))
		if i%3 == 0 {
			ops = append(ops, crashOp{del: true, key: k})
		} else {
			ops = append(ops, crashOp{key: k, val: val(rng.Intn(1 << 20))})
		}
	}
	sc := ckptScenario{
		ecfg: engine.Config{CacheBytes: 16 << 20},
		dcfg: engine.DurabilityConfig{
			LogBytes: 16 << 20, GroupBytes: 4 << 10, JournalBytes: 16 << 20, CheckpointEveryBytes: -1,
		},
		ops: ops, split: keyspace, synced: synced,
	}
	writes, super := sc.checkpointWrites(t)
	const tear = 4<<10 + 7
	if writes[super-1][1] <= tear {
		t.Fatalf("the table record is %d bytes: a tear at %d would not cross a block boundary", writes[super-1][1], tear)
	}
	sc.crashIn(t, super, tear, fmt.Sprintf("table record torn at byte %d", tear))
	sc.crashIn(t, super+1, 20, "superblock torn at byte 20")
}

// runUntilCrash runs fn, absorbing the FaultStore's crash panic; it reports
// whether the crash fired. Any other panic propagates.
func runUntilCrash(fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*storage.CrashError); ok {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	fn()
	return false
}

// TestRecoverRejectsNonDurableImage: recovering a store that was never a
// durable engine must fail cleanly, not fabricate state.
func TestRecoverRejectsNonDurableImage(t *testing.T) {
	fs := storage.NewFaultStore(flatDev{testCapacity})
	_, _, err := engine.Recover(engCfg(), smallDur(), fs, sim.New())
	if err == nil {
		t.Fatal("Recover succeeded on a blank image")
	}
}

// TestReplayRefusesUpsertRecord: a Durable logs an upsert as the Put of its
// post-image, so the log it writes holds only Puts and Tombstones. An Upsert
// record appended behind its back makes Replay fail naming the record,
// instead of folding a delta into the recovered tree.
func TestReplayRefusesUpsertRecord(t *testing.T) {
	fs := storage.NewFaultStore(flatDev{testCapacity})
	e := engine.FromStore(engCfg(), fs, sim.New())
	dcfg := smallDur()
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
	d.Put(key(1), val(1))
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}

	// Crash, then append an Upsert record to the committed log directly.
	raw := engine.FromStore(engCfg(), fs, sim.New())
	log, err := wal.Open(wal.Config{Offset: engine.SuperRegionBytes, Capacity: dcfg.LogBytes, GroupBytes: dcfg.GroupBytes}, raw.Owner())
	if err != nil {
		t.Fatal(err)
	}
	seq, err := log.Append(wal.Record{Kind: kv.Upsert, Key: key(2), Value: kv.UpsertDelta(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Commit(); err != nil {
		t.Fatal(err)
	}

	e2, r, err := engine.Recover(engCfg(), dcfg, fs, sim.New())
	if err != nil {
		t.Fatal(err)
	}
	man, _ := r.Manifest("bt")
	bt2, err := openBTree(e2, man)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Attach("bt", bt2); err != nil {
		t.Fatal(err)
	}
	_, err = r.Replay()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("record %d has kind upsert", seq)) {
		t.Fatalf("Replay of an Upsert record (seq %d) returned %v, want an error naming it", seq, err)
	}
}

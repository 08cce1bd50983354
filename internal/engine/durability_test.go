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
	"testing"
	"testing/quick"

	"iomodels/internal/betree"
	"iomodels/internal/btree"
	"iomodels/internal/engine"
	"iomodels/internal/lsm"
	"iomodels/internal/sim"
	"iomodels/internal/storage"
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

// TestCrashRecoverEqualsCommittedPrefix is the headline property: whatever
// write the machine dies on — torn mid-frame or clean — recovery yields
// exactly the state of the committed operation prefix, no more, no less.
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
	e := engine.FromStore(engCfg(), fs, sim.New())
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
		for _, op := range ops {
			if op.del {
				d.Delete(op.key)
			} else {
				d.Put(op.key, op.val)
			}
		}
		if err := e.Sync(); err != nil {
			t.Fatalf("sync: %v", err)
		}
	})
	if !crashed {
		fs.ClearFaults() // script outran the crash point: treat as clean run
	} else {
		fs.ClearFaults() // reboot: byte image survives, volatile state gone
	}

	recoverAndCheckPrefix(t, fs, engCfg(), dcfg, ops, crashed, fmt.Sprintf("crash at write %d (tear %d)", crashN, c.Tear))
	return true
}

// recoverAndCheckPrefix reopens fs's image and requires the recovered B-tree
// "bt" to equal the model folded over exactly the first CommittedSeq ops — all
// of them if the run did not crash.
func recoverAndCheckPrefix(t *testing.T, fs *storage.FaultStore, ecfg engine.Config, dcfg engine.DurabilityConfig, ops []crashOp, crashed bool, what string) {
	t.Helper()
	e2, r, err := engine.Recover(ecfg, dcfg, fs, sim.New())
	if err != nil {
		t.Fatalf("recover (%s): %v", what, err)
	}
	// A crash before the first post-registration checkpoint recovers to the
	// initial (empty) checkpoint, which has no manifest: the tree restarts
	// empty and replay rebuilds the committed prefix from the WAL alone.
	var bt2 *btree.Tree
	if man, ok := r.Manifest("bt"); ok {
		bt2, err = btree.Open(btreeCfg(), e2, man)
	} else {
		bt2, err = btree.New(btreeCfg(), e2)
	}
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	d2, err := r.Attach("bt", bt2)
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
	if err := bt2.Check(); err != nil {
		t.Fatalf("recovered tree invariants: %v", err)
	}
}

// TestCrashTornSealAcrossChunks aims the same property at the store image's
// chunk table: the fatal write is a checkpoint seal of several MiB — one
// WriteAt that straddles every chunk boundary under it — torn a few bytes
// past the 1 MiB mark and a page past the 2 MiB mark (boundaries of any
// power-of-two chunk size up to 1 MiB), over a slot that held an older
// sealed journal. Recovery must reject the torn
// frame, fall back to the other slot's checkpoint and replay the WAL to
// exactly the committed prefix.
func TestCrashTornSealAcrossChunks(t *testing.T) {
	ecfg := engine.Config{CacheBytes: 16 << 20}
	dcfg := engine.DurabilityConfig{
		LogBytes: 16 << 20, GroupBytes: 4 << 10, JournalBytes: 16 << 20, CheckpointEveryBytes: -1,
	}
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
	for _, tear := range []int{1<<20 + 7, 2<<20 + 4099} {
		fs := storage.NewFaultStore(flatDev{testCapacity})
		e := engine.FromStore(ecfg, fs, sim.New())
		if err := e.EnableDurability(dcfg); err != nil { // seals the empty checkpoint in slot 0
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
		apply := func(ops []crashOp) {
			for _, op := range ops {
				if op.del {
					d.Delete(op.key)
				} else {
					d.Put(op.key, op.val)
				}
			}
		}
		apply(ops[:keyspace])
		if err := e.Checkpoint(); err != nil { // slot 1: the checkpoint recovery will fall back to
			t.Fatal(err)
		}
		apply(ops[keyspace:synced]) // dirties every leaf again
		if err := e.Sync(); err != nil {
			t.Fatal(err)
		}
		apply(ops[synced:])
		if dirty := e.Pager().DirtyBytes(); dirty <= int64(tear) {
			t.Fatalf("dirty set %d bytes: the seal would not reach the tear point %d", dirty, tear)
		}
		fs.CrashAtWrite(1, tear) // the checkpoint's first write is the seal, into slot 0
		if !runUntilCrash(func() { _ = e.Checkpoint() }) {
			t.Fatalf("tear %d: the armed crash did not fire", tear)
		}
		fs.ClearFaults()
		recoverAndCheckPrefix(t, fs, ecfg, dcfg, ops, true, fmt.Sprintf("seal torn at byte %d", tear))
	}
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

package iomodels

import (
	"bytes"
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func TestFacadeBTreeLifecycle(t *testing.T) {
	clk := NewClock()
	disk := NewHDD(HDDProfiles()[0], 1, clk)
	eng := NewEngine(EngineConfig{CacheBytes: 1 << 20}, disk)
	tree, err := NewBTree(BTreeConfig{
		NodeBytes: 16 << 10, MaxKeyBytes: 32, MaxValueBytes: 64,
	}, eng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		tree.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	v, ok := tree.Get([]byte("k00500"))
	if !ok || string(v) != "v500" {
		t.Fatalf("got %q %v", v, ok)
	}
}

func TestFacadeBeTreeLifecycle(t *testing.T) {
	clk := NewClock()
	disk := NewHDD(HDDProfiles()[2], 1, clk)
	eng := NewEngine(EngineConfig{CacheBytes: 1 << 20}, disk)
	tree, err := NewBeTree(BeTreeConfig{
		NodeBytes: 64 << 10, MaxFanout: 8, MaxKeyBytes: 32, MaxValueBytes: 64,
	}.Optimized(), eng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		tree.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	tree.Upsert([]byte("counter"), 5)
	v, ok := tree.Get([]byte("k04321"))
	if !ok || string(v) != "v4321" {
		t.Fatalf("got %q %v", v, ok)
	}
	tree.Flush() // write back dirty nodes: virtual disk time must accrue
	if clk.Now() == 0 {
		t.Fatal("no virtual time passed")
	}
}

func TestFacadeLSMLifecycle(t *testing.T) {
	clk := NewClock()
	disk := NewHDD(HDDProfiles()[2], 1, clk)
	eng := NewEngine(EngineConfig{CacheBytes: 1 << 20}, disk)
	tree, err := NewLSMTree(LSMConfig{
		MemtableBytes: 8 << 10, SSTableBytes: 32 << 10, GrowthFactor: 4, Level0Runs: 2, BlockBytes: 4 << 10,
	}, eng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		tree.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	v, ok := tree.Get([]byte("k02999"))
	if !ok || string(v) != "v2999" {
		t.Fatalf("got %q %v", v, ok)
	}
}

func TestFacadeSSD(t *testing.T) {
	clk := NewClock()
	disk := NewSSD(SSDProfiles()[0], clk)
	buf := make([]byte, 64<<10)
	disk.WriteAt(buf, 0)
	if out := disk.Read(0, 64<<10); !bytes.Equal(buf, out) {
		t.Fatal("roundtrip failed")
	}
	if clk.Now() == 0 {
		t.Fatal("no time charged")
	}
}

func TestFacadeModelHelpers(t *testing.T) {
	prof := HDDProfiles()[2]
	a := AffineOf(prof)
	if a.Setup <= 0 || a.PerByte <= 0 {
		t.Fatalf("affine: %+v", a)
	}
	opt := OptimalBTreeNodeBytes(prof, 124)
	if opt <= 0 || float64(opt) >= a.HalfBandwidthBytes() {
		t.Fatalf("optimal node %d vs half-bandwidth %.0f", opt, a.HalfBandwidthBytes())
	}
	f, nb := OptimalBeTreeParams(prof, 124, 28)
	if f <= 1 || nb <= opt {
		t.Fatalf("Bε params: F=%d B=%d", f, nb)
	}
}

func TestFacadeProfileSets(t *testing.T) {
	if len(HDDProfiles()) != 5 {
		t.Fatal("Table 2 has five drives")
	}
	if len(SSDProfiles()) != 4 {
		t.Fatal("Table 1 has four SSDs")
	}
}

func TestFacadeCOBTreeLifecycle(t *testing.T) {
	clk := NewClock()
	disk := NewHDD(HDDProfiles()[2], 1, clk)
	eng := NewEngine(EngineConfig{CacheBytes: 1 << 20}, disk)
	tree, err := NewCOBTree(COBTreeConfig{
		MaxKeyBytes: 32, MaxValueBytes: 64, BlockBytes: 4 << 10,
	}, eng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		tree.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	v, ok := tree.Get([]byte("k02500"))
	if !ok || string(v) != "v2500" {
		t.Fatalf("got %q %v", v, ok)
	}
	if clk.Now() == 0 {
		t.Fatal("no virtual time charged")
	}
}

func TestFacadeDurableCrashRecovery(t *testing.T) {
	fs := NewFaultStore(NewHDDDeterministic(HDDProfiles()[2]))
	eng := NewEngineOnStore(EngineConfig{CacheBytes: 1 << 20}, fs, NewClock())
	dcfg := DurabilityConfig{LogBytes: 4 << 20, GroupBytes: 1 << 10}
	if err := eng.EnableDurability(dcfg); err != nil {
		t.Fatal(err)
	}
	btCfg := BTreeConfig{NodeBytes: 16 << 10, MaxKeyBytes: 32, MaxValueBytes: 64}
	tree, err := NewBTree(btCfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := eng.Durable("t", tree)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		wrapped.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 300; i < 400; i++ {
		wrapped.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}

	// Pull the plug on the next device write, then trip it.
	fs.CrashAtWrite(1, 1<<30)
	func() {
		defer func() {
			if _, ok := recover().(*CrashError); !ok {
				t.Fatal("expected a crash")
			}
		}()
		for i := 0; i < 50; i++ { // fill the group until a commit write trips
			wrapped.Put([]byte(fmt.Sprintf("t%05d", i)), bytes.Repeat([]byte("x"), 40))
		}
		eng.Sync() //nolint:errcheck
		eng.Checkpoint()
	}()

	fs.ClearFaults()
	e2, rec, err := RecoverEngine(EngineConfig{CacheBytes: 1 << 20}, dcfg, fs, NewClock())
	if err != nil {
		t.Fatal(err)
	}
	man, ok := rec.Manifest("t")
	if !ok {
		t.Fatal("manifest lost")
	}
	t2, err := OpenBTree(btCfg, e2, man)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Attach("t", t2); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Replay(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		v, ok := t2.Get([]byte(fmt.Sprintf("k%05d", i)))
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d: got %q %v after recovery", i, v, ok)
		}
	}
}

// TestVirtualTimeScopeImportsNoClock: the device simulators, the cost models,
// the fits and the read scheduler are functions of virtual time (sim.Time),
// so the tables the experiments print are byte-identical run to run. No
// non-test file there may import time: a wall-clock read, a sleep or a timer
// would make a result depend on how the host schedules it.
func TestVirtualTimeScopeImportsNoClock(t *testing.T) {
	for _, sc := range []struct{ name, glob string }{
		{"root", "*.go"},
		{"sim", "internal/sim/*.go"},
		{"pdamdev", "internal/pdamdev/*.go"},
		{"hdd", "internal/hdd/*.go"},
		{"ssd", "internal/ssd/*.go"},
		{"mqssd", "internal/mqssd/*.go"},
		{"fit", "internal/fit/*.go"},
		{"scheduler", "internal/server/scheduler.go"},
	} {
		t.Run(sc.name, func(t *testing.T) {
			files, err := filepath.Glob(sc.glob)
			if err != nil || len(files) == 0 {
				t.Fatalf("%s: no Go files (%v)", sc.glob, err)
			}
			fset := token.NewFileSet()
			for _, name := range files {
				if strings.HasSuffix(name, "_test.go") {
					continue
				}
				f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
				if err != nil {
					t.Fatal(err)
				}
				for _, imp := range f.Imports {
					if imp.Path.Value == `"time"` {
						t.Errorf("%s imports time; the virtual-time packages keep sim.Time only", name)
					}
				}
			}
		})
	}
}

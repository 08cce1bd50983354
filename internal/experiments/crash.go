// E19 (§3): the durability tax. The paper's caveat list for small B-tree
// nodes includes that "write IOs in the B-tree may also trigger write IOs
// from logging and checkpointing" — durability turns one logical update
// into structure writes PLUS log-append writes PLUS periodic checkpoint
// writes (the dirty pages, then the seal). E19 measures that decomposition
// for the three dictionary families: baseline write amplification with
// durability off, amplification with the WAL-backed engine on, the log and
// checkpoint byte components, and a crash-at-90%-of-writes recovery drill
// (records replayed, virtual recovery time).

package experiments

import (
	"fmt"

	"iomodels/internal/betree"
	"iomodels/internal/btree"
	"iomodels/internal/engine"
	"iomodels/internal/hdd"
	"iomodels/internal/lsm"
	"iomodels/internal/sim"
	"iomodels/internal/storage"
	"iomodels/internal/workload"
)

// CrashConfig parameterizes E19.
type CrashConfig struct {
	Items      int64
	CacheBytes int64
	NodeBytes  int // B-tree and Bε-tree node size
	Fanout     int
	Profile    hdd.Profile
	Spec       workload.KeySpec
	Durability engine.DurabilityConfig
	// CrashFrac is the fraction of the workload's operations after which
	// the recovery drill pulls the plug (on the next device write, which
	// the drill forces with a sync).
	CrashFrac float64
}

// DefaultCrashConfig is laptop-scale.
func DefaultCrashConfig() CrashConfig {
	return CrashConfig{
		Items:      60_000,
		CacheBytes: 2 << 20,
		NodeBytes:  64 << 10,
		Fanout:     betree.DefaultFanout,
		Profile:    hdd.DefaultProfile(),
		Spec:       workload.DefaultSpec(),
		Durability: engine.DurabilityConfig{
			LogBytes:   64 << 20,
			GroupBytes: 64 << 10,
			// A dirty-set budget larger than the whole tree, so checkpoint
			// cadence is set by WAL growth (below), not by the dirty set.
			JournalBytes:         32 << 20,
			CheckpointEveryBytes: 2 << 20,
		},
		CrashFrac: 0.9,
	}
}

// CrashRow is one structure's measurement.
type CrashRow struct {
	Structure    string
	BaseWA       float64 // durability off: disk bytes written / logical bytes
	DurableWA    float64 // durability on: all writes, same quotient
	LogWA        float64 // WAL append component of DurableWA
	CkptWA       float64 // checkpoint component (page write-backs + seals)
	Checkpoints  int64
	Replayed     int                    // records replayed in the crash drill
	RecoveryTime sim.Time               // virtual time to recover + replay
	Stats        engine.DurabilityStats // full durable-run counters
}

// crashTree is one structure of E19: its name, and its constructor on an
// engine, new when manifest is nil or reopened from a recovered manifest.
type crashTree struct {
	name string
	open func(e *engine.Engine, manifest []byte) (engine.Tree, error)
}

// reopen pairs a tree's constructor and its Open at one config.
func reopen[C any, T engine.Tree](newTree func(C, *engine.Engine) (T, error), open func(C, *engine.Engine, []byte) (T, error), cfg C) func(*engine.Engine, []byte) (engine.Tree, error) {
	return func(e *engine.Engine, manifest []byte) (engine.Tree, error) {
		if manifest == nil {
			return newTree(cfg, e)
		}
		return open(cfg, e, manifest)
	}
}

func (cfg CrashConfig) trees() []crashTree {
	lsCfg := lsm.DefaultConfig()
	lsCfg.MemtableBytes = int(cfg.CacheBytes / 4)
	return []crashTree{
		{"B-tree", reopen(btree.New, btree.Open, bTree(cfg.Spec, cfg.NodeBytes))},
		{"Bε-tree", reopen(betree.New, betree.Open, beTree(cfg.Spec, cfg.NodeBytes, cfg.Fanout).Optimized())},
		{"LSM-tree", reopen(lsm.New, lsm.Open, lsCfg)},
	}
}

// Crash runs E19.
func Crash(cfg CrashConfig) []CrashRow {
	return sweep(cfg.trees(), func(ct crashTree) CrashRow {
		// Baseline: durability off.
		_, _, base := load(hdd.NewDeterministic(cfg.Profile), cfg.CacheBytes,
			func(e *engine.Engine) (engine.Tree, error) { return ct.open(e, nil) },
			func(t engine.Tree) { workload.Load(t, cfg.Spec, cfg.Items) })

		// Durable run: same load through the WAL-backed wrapper.
		row := cfg.durableRun(ct, 0)
		row.BaseWA = writeAmp(base)

		// Crash drill: rerun, pull the plug after CrashFrac of the
		// operations, recover, replay.
		drill := cfg.durableRun(ct, max(int64(float64(cfg.Items)*cfg.CrashFrac), 1))
		row.Replayed = drill.Replayed
		row.RecoveryTime = drill.RecoveryTime
		return row
	})
}

// durableRun loads cfg.Items through a durable wrapper. With crashAfter >
// 0 it loads only that many items, arms a clean-boundary crash on the next
// device write, forces one with a sync, then recovers and replays, filling
// Replayed and RecoveryTime.
func (cfg CrashConfig) durableRun(ct crashTree, crashAfter int64) CrashRow {
	fs := storage.NewFaultStore(hdd.NewDeterministic(cfg.Profile))
	_, eng := assemble(fs, cfg.CacheBytes)
	dcfg := cfg.Durability
	if err := eng.EnableDurability(dcfg); err != nil {
		panic(fmt.Sprintf("experiments: crash durability: %v", err))
	}
	tree, err := ct.open(eng, nil)
	if err != nil {
		panic(fmt.Sprintf("experiments: crash durable: %v", err))
	}
	wrapped, err := eng.Durable("t", tree)
	if err != nil {
		panic(fmt.Sprintf("experiments: crash register: %v", err))
	}
	crashed := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*storage.CrashError); ok && crashAfter > 0 {
					crashed = true
					return
				}
				panic(r)
			}
		}()
		if crashAfter > 0 {
			workload.Load(wrapped, cfg.Spec, crashAfter)
			// Pull the plug on the next device write; the sync forces one
			// (committing the pending log group, which lands in full — a
			// clean-boundary crash — before the power dies). If the group
			// happened to be empty, the checkpoint's first write crashes
			// instead.
			fs.CrashAtWrite(1, 1<<30)
			eng.Sync()       //lint:allowdiscard the injected crash panics mid-write; no return to check
			eng.Checkpoint() //lint:allowdiscard ditto — reached only if the sync group was empty
			return
		}
		workload.Load(wrapped, cfg.Spec, cfg.Items)
		// End with a checkpoint — the durable analogue of the baseline's
		// Flush: under the no-steal policy dirty pages reach the device only
		// through it, so without it the quotient would omit every structure
		// write.
		if err := eng.Checkpoint(); err != nil {
			panic(fmt.Sprintf("experiments: crash checkpoint: %v", err))
		}
	}()

	row := CrashRow{Structure: ct.name}
	if !crashed {
		st := eng.DurabilityStats()
		logical := tree.Stats().LogicalBytes
		row.DurableWA = writeAmp(tree)
		row.LogWA = float64(st.LogBytes) / float64(logical)
		row.CkptWA = float64(st.JournalBytes+st.RedoBytes) / float64(logical)
		row.Checkpoints = st.Checkpoints
		row.Stats = st
		return row
	}

	// Recovery drill: reboot the medium and reopen.
	fs.ClearFaults()
	clk := sim.New()
	start := clk.Now()
	e2, rec, err := engine.Recover(engine.Config{CacheBytes: cfg.CacheBytes}, dcfg, fs, clk)
	if err != nil {
		panic(fmt.Sprintf("experiments: crash recover: %v", err))
	}
	man, _ := rec.Manifest("t")
	dict, err := ct.open(e2, man)
	if err != nil {
		panic(fmt.Sprintf("experiments: crash reopen: %v", err))
	}
	if _, err := rec.Attach("t", dict); err != nil {
		panic(fmt.Sprintf("experiments: crash attach: %v", err))
	}
	n, err := rec.Replay()
	if err != nil {
		panic(fmt.Sprintf("experiments: crash replay: %v", err))
	}
	row.Replayed = n
	row.RecoveryTime = clk.Now() - start
	return row
}

// RenderCrash formats E19.
func RenderCrash(rows []CrashRow) string {
	return renderRows("E19: the durability tax (§3) — write amplification with WAL + checkpoints on, and a crash-at-90% recovery drill", rows, []column[CrashRow]{
		{"Structure", func(r CrashRow) string { return r.Structure }},
		{"WA off", func(r CrashRow) string { return f2(r.BaseWA) }},
		{"WA on", func(r CrashRow) string { return f2(r.DurableWA) }},
		{"log", func(r CrashRow) string { return f2(r.LogWA) }},
		{"ckpt", func(r CrashRow) string { return f2(r.CkptWA) }},
		{"ckpts", func(r CrashRow) string { return fmt.Sprint(r.Checkpoints) }},
		{"replayed", func(r CrashRow) string { return fmt.Sprint(r.Replayed) }},
		{"recovery", func(r CrashRow) string { return fmt.Sprintf("%.1fms", r.RecoveryTime.Milliseconds()) }},
	})
}

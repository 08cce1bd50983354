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

// crashSetup builds a durable engine + tree of the named structure on a
// fault store and returns the workload-facing dictionary plus the tree's
// logical-bytes counter.
type crashTree struct {
	dict    workload.Dictionary
	logical func() int64
	// open reopens the structure on a recovered engine from its manifest
	// (nil manifest = start empty) and returns the dictionary to attach.
	open func(e *engine.Engine, manifest []byte) (engine.Dictionary, error)
	name string
}

func (cfg CrashConfig) trees() []func(e *engine.Engine) (crashTree, error) {
	btCfg := btree.Config{
		NodeBytes:     cfg.NodeBytes,
		MaxKeyBytes:   cfg.Spec.KeyBytes,
		MaxValueBytes: cfg.Spec.ValueBytes,
	}
	beCfg := betree.Config{
		NodeBytes:     cfg.NodeBytes,
		MaxFanout:     cfg.Fanout,
		MaxKeyBytes:   cfg.Spec.KeyBytes,
		MaxValueBytes: cfg.Spec.ValueBytes,
	}.Optimized()
	lsCfg := lsm.DefaultConfig()
	lsCfg.MemtableBytes = int(cfg.CacheBytes / 4)
	return []func(e *engine.Engine) (crashTree, error){
		func(e *engine.Engine) (crashTree, error) {
			t, err := btree.New(btCfg, e)
			if err != nil {
				return crashTree{}, err
			}
			return crashTree{
				name: "B-tree", dict: t,
				logical: func() int64 { return t.LogicalBytesInserted },
				open: func(e2 *engine.Engine, man []byte) (engine.Dictionary, error) {
					if man == nil {
						return btree.New(btCfg, e2)
					}
					return btree.Open(btCfg, e2, man)
				},
			}, nil
		},
		func(e *engine.Engine) (crashTree, error) {
			t, err := betree.New(beCfg, e)
			if err != nil {
				return crashTree{}, err
			}
			return crashTree{
				name: "Bε-tree", dict: t,
				logical: func() int64 { return t.LogicalBytesInserted },
				open: func(e2 *engine.Engine, man []byte) (engine.Dictionary, error) {
					if man == nil {
						return betree.New(beCfg, e2)
					}
					return betree.Open(beCfg, e2, man)
				},
			}, nil
		},
		func(e *engine.Engine) (crashTree, error) {
			t, err := lsm.New(lsCfg, e)
			if err != nil {
				return crashTree{}, err
			}
			return crashTree{
				name: "LSM-tree", dict: t,
				logical: func() int64 { return t.LogicalBytesInserted },
				open: func(e2 *engine.Engine, man []byte) (engine.Dictionary, error) {
					if man == nil {
						return lsm.New(lsCfg, e2)
					}
					return lsm.Open(lsCfg, e2, man)
				},
			}, nil
		},
	}
}

// Crash runs E19.
func Crash(cfg CrashConfig) []CrashRow {
	var rows []CrashRow
	for _, mk := range cfg.trees() {
		// Baseline: durability off.
		var baseWA float64
		{
			eng := engine.New(engine.Config{CacheBytes: cfg.CacheBytes}, hdd.NewDeterministic(cfg.Profile), sim.New())
			ct, err := mk(eng)
			if err != nil {
				panic(fmt.Sprintf("experiments: crash baseline: %v", err))
			}
			workload.Load(ct.dict, cfg.Spec, cfg.Items)
			flushDict(ct.dict)
			baseWA = float64(eng.Counters().BytesWritten) / float64(ct.logical())
		}

		// Durable run: same load through the WAL-backed wrapper.
		row := cfg.durableRun(mk, 0)
		row.BaseWA = baseWA

		// Crash drill: rerun, pull the plug after CrashFrac of the
		// operations, recover, replay.
		crashAfter := int64(float64(cfg.Items) * cfg.CrashFrac)
		if crashAfter < 1 {
			crashAfter = 1
		}
		drill := cfg.durableRun(mk, crashAfter)
		row.Replayed = drill.Replayed
		row.RecoveryTime = drill.RecoveryTime
		rows = append(rows, row)
	}
	return rows
}

// flushDict flushes whatever flavor of Flush the tree has.
func flushDict(d workload.Dictionary) {
	if f, ok := d.(interface{ Flush() }); ok {
		f.Flush()
	}
}

// durableRun loads cfg.Items through a durable wrapper. With crashAfter >
// 0 it loads only that many items, arms a clean-boundary crash on the next
// device write, forces one with a sync, then recovers and replays, filling
// Replayed and RecoveryTime.
func (cfg CrashConfig) durableRun(mk func(*engine.Engine) (crashTree, error), crashAfter int64) CrashRow {
	fs := storage.NewFaultStore(hdd.NewDeterministic(cfg.Profile))
	eng := engine.FromStore(engine.Config{CacheBytes: cfg.CacheBytes}, fs, sim.New())
	dcfg := cfg.Durability
	if err := eng.EnableDurability(dcfg); err != nil {
		panic(fmt.Sprintf("experiments: crash durability: %v", err))
	}
	ct, err := mk(eng)
	if err != nil {
		panic(fmt.Sprintf("experiments: crash durable: %v", err))
	}
	wrapped, err := eng.Durable("t", ct.dict.(engine.Dictionary))
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
		logical := ct.logical()
		total := eng.Counters().BytesWritten
		row.DurableWA = float64(total) / float64(logical)
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

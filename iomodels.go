// Package iomodels is a from-scratch reproduction of "Small Refinements to
// the DAM Can Have Big Consequences for Data-Structure Design" (Bender et
// al., SPAA 2019): the affine and PDAM refinements of the disk-access
// machine model, the storage-device simulators that validate them, and the
// external-memory dictionaries (B-tree, Bε-tree, LSM-tree, van Emde Boas
// PDAM tree) whose design the models explain and improve.
//
// This root package is the public facade: it re-exports the pieces a
// downstream user composes, with convenience constructors wiring a tree to
// a simulated device on a virtual clock. The layering underneath:
//
//	sim        virtual-time discrete-event engine (clock + processes)
//	storage    device interface, byte store, IO counters, traces
//	hdd, ssd   mechanistic device simulators (Table 1/2 profiles)
//	pdamdev    the abstract PDAM device of Definition 1
//	engine     shared IO path: device + allocator + sharded buffer pool
//	           (the models' M), multi-client, and the Dictionary interface
//	core       the analytic models and cost formulas (the paper's math)
//	btree      classic B-tree (BerkeleyDB stand-in)
//	betree     Bε-tree with the Theorem 9 node organization (TokuDB stand-in)
//	lsm        leveled LSM-tree (LevelDB stand-in)
//	veb        §8's van Emde Boas PDAM search tree
//	experiments one harness per table/figure of the paper
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured results; cmd/repro regenerates every table and
// figure from the experiment registry and checks EXPERIMENTS.md against it.
package iomodels

import (
	"iomodels/internal/betree"
	"iomodels/internal/btree"
	"iomodels/internal/cobtree"
	"iomodels/internal/core"
	"iomodels/internal/engine"
	"iomodels/internal/hdd"
	"iomodels/internal/lsm"
	"iomodels/internal/sim"
	"iomodels/internal/ssd"
	"iomodels/internal/storage"
)

// Re-exported model types (see internal/core for the full API).
type (
	// Affine is the affine model of §2.3: an IO of x bytes costs
	// Setup + PerByte·x seconds.
	Affine = core.Affine
	// DAM is the classic disk-access machine model.
	DAM = core.DAM
	// PDAM is the parallel DAM of §2.2.
	PDAM = core.PDAM
	// BTreeParams parameterizes the §5 B-tree analyses.
	BTreeParams = core.BTreeParams
	// BeTreeParams parameterizes the §6 Bε-tree analyses.
	BeTreeParams = core.BeTreeParams
)

// Re-exported simulator types.
type (
	// Clock is a virtual-time discrete-event engine.
	Clock = sim.Engine
	// VirtualTime is a virtual timestamp/duration in nanoseconds.
	VirtualTime = sim.Time
	// Disk couples a timing device with a byte store on a virtual clock.
	Disk = storage.Disk
	// HDDProfile describes a simulated hard drive.
	HDDProfile = hdd.Profile
	// SSDProfile describes a simulated solid-state drive.
	SSDProfile = ssd.Profile
)

// Re-exported engine types: the shared IO path every dictionary runs on.
type (
	// Engine bundles a device, its byte store, an extent allocator, and a
	// sharded buffer pool; many trees and many concurrent clients may
	// share one.
	Engine = engine.Engine
	// EngineConfig sizes an Engine (cache budget, pager shards).
	EngineConfig = engine.Config
	// Client is one simulated actor's handle onto an Engine: it issues
	// IOs in its own virtual timeline and keeps its own IO counters.
	Client = engine.Client
	// Dictionary is the common interface all four tree structures
	// implement (Get/Put/Delete/Scan/Stats).
	Dictionary = engine.Dictionary
	// Tree is a Dictionary that lends its reads to per-client sessions
	// and writes back what it buffers on Flush; all four trees are one.
	Tree = engine.Tree
	// DictionaryStats is a Dictionary's uniform self-report.
	DictionaryStats = engine.Stats
	// PagerStats reports buffer-pool hits, misses, evictions, and
	// write-backs.
	PagerStats = engine.PagerStats
)

// Re-exported durability and fault-injection types: the WAL-backed engine
// write path, copy-on-write checkpoints, crash recovery, and the fault store
// that drills them (see internal/engine and internal/storage).
type (
	// DurabilityConfig sizes the WAL, the no-steal dirty-set budget, and
	// the auto-checkpoint cadence; zero values pick defaults.
	DurabilityConfig = engine.DurabilityConfig
	// Durable is the write-ahead-logging wrapper around a Dictionary:
	// every mutation is logged before it is applied.
	Durable = engine.Durable
	// DurabilityStats decomposes the durability write traffic (log bytes,
	// the page bytes checkpoints write back, the bytes their seals write)
	// the paper's §3 alludes to.
	DurabilityStats = engine.DurabilityStats
	// Recovery is the reopen-after-crash handle: reattach dictionaries by
	// name, then Replay the WAL's committed suffix.
	Recovery = engine.Recovery
	// Device models the timing behaviour of a storage device.
	Device = storage.Device
	// ByteStore couples a timing device with stored bytes.
	ByteStore = storage.ByteStore
	// FaultStore wraps a ByteStore with crash, torn-write, and read-fault
	// injection.
	FaultStore = storage.FaultStore
	// CrashError is the panic value a fired crash fault unwinds with.
	CrashError = storage.CrashError
)

// Re-exported dictionary types.
type (
	// BTree is a disk-backed B-tree with a configurable node size.
	BTree = btree.Tree
	// BTreeConfig shapes a BTree.
	BTreeConfig = btree.Config
	// BeTree is a disk-backed Bε-tree.
	BeTree = betree.Tree
	// BeTreeConfig shapes a BeTree.
	BeTreeConfig = betree.Config
	// LSMTree is a leveled log-structured merge tree.
	LSMTree = lsm.Tree
	// LSMConfig shapes an LSMTree.
	LSMConfig = lsm.Config
	// COBTree is a dynamic cache-oblivious B-tree (packed-memory array with
	// a van Emde Boas index), the §8 direction made dynamic.
	COBTree = cobtree.Tree
	// COBTreeConfig shapes a COBTree.
	COBTreeConfig = cobtree.Config
)

// NewClock returns a fresh virtual clock at time zero.
func NewClock() *Clock { return sim.New() }

// HDDProfiles returns the five Table 2 hard-drive profiles.
func HDDProfiles() []HDDProfile { return hdd.Profiles() }

// SSDProfiles returns the four Table 1 SSD profiles.
func SSDProfiles() []SSDProfile { return ssd.Profiles() }

// NewHDD creates a simulated hard drive with backing storage on clk. The
// seed drives the rotational-latency stream.
func NewHDD(prof HDDProfile, seed uint64, clk *Clock) *Disk {
	return storage.NewDisk(hdd.New(prof, seed), clk)
}

// NewHDDDeterministic creates a hard-drive timing device whose rotational
// latency is pinned at its mean, for exactly reproducible runs (crash
// drills, property tests). Pair it with NewFaultStore + NewEngineOnStore.
func NewHDDDeterministic(prof HDDProfile) Device { return hdd.NewDeterministic(prof) }

// NewSSD creates a simulated SSD with backing storage on clk.
func NewSSD(prof SSDProfile, clk *Clock) *Disk {
	return storage.NewDisk(ssd.New(prof), clk)
}

// NewEngine creates a storage engine sharing disk's device, byte store,
// and clock. All trees living on one engine share its cache budget,
// allocator, and IO counters.
func NewEngine(cfg EngineConfig, disk *Disk) *Engine { return engine.FromDisk(cfg, disk) }

// NewFaultStore wraps dev with an in-memory byte store plus crash,
// torn-write, and read-fault injection. Build an engine on it with
// NewEngineOnStore; after a crash, ClearFaults reboots the medium and
// RecoverEngine reopens the surviving image.
func NewFaultStore(dev Device) *FaultStore { return storage.NewFaultStore(dev) }

// NewEngineOnStore creates an engine directly on a ByteStore (e.g. a
// FaultStore) with a clock. Call Engine.EnableDurability before creating
// trees to turn on the WAL-backed write path.
func NewEngineOnStore(cfg EngineConfig, store ByteStore, clk *Clock) *Engine {
	return engine.FromStore(cfg, store, clk)
}

// RecoverEngine reopens a durable engine's device image after a crash: it
// locates the newest sealed checkpoint, reinstalls its pages and allocator,
// and scans the WAL's committed suffix. Reattach each dictionary (reopened
// from Recovery.Manifest via OpenBTree/OpenBeTree/OpenLSMTree) in its
// original registration order, then call Recovery.Replay.
func RecoverEngine(cfg EngineConfig, dcfg DurabilityConfig, store ByteStore, clk *Clock) (*Engine, *Recovery, error) {
	return engine.Recover(cfg, dcfg, store, clk)
}

// NewBTree creates a B-tree on the given engine.
func NewBTree(cfg BTreeConfig, eng *Engine) (*BTree, error) { return btree.New(cfg, eng) }

// OpenBTree reopens a checkpointed B-tree from its recovery manifest.
func OpenBTree(cfg BTreeConfig, eng *Engine, manifest []byte) (*BTree, error) {
	return btree.Open(cfg, eng, manifest)
}

// OpenBeTree reopens a checkpointed Bε-tree from its recovery manifest.
func OpenBeTree(cfg BeTreeConfig, eng *Engine, manifest []byte) (*BeTree, error) {
	return betree.Open(cfg, eng, manifest)
}

// OpenLSMTree reopens a checkpointed LSM-tree from its recovery manifest.
func OpenLSMTree(cfg LSMConfig, eng *Engine, manifest []byte) (*LSMTree, error) {
	return lsm.Open(cfg, eng, manifest)
}

// NewBeTree creates a Bε-tree on the given engine. Use
// BeTreeConfig.Optimized() for the Theorem 9 node organization.
func NewBeTree(cfg BeTreeConfig, eng *Engine) (*BeTree, error) { return betree.New(cfg, eng) }

// NewLSMTree creates an LSM-tree on the given engine.
func NewLSMTree(cfg LSMConfig, eng *Engine) (*LSMTree, error) { return lsm.New(cfg, eng) }

// NewCOBTree creates a cache-oblivious B-tree metered against the engine's
// device. Unlike the other trees it needs no node-size tuning: its IO
// efficiency holds for every block size simultaneously (the engine's
// CacheBytes plays the model's M).
func NewCOBTree(cfg COBTreeConfig, eng *Engine) (*COBTree, error) {
	return cobtree.New(cfg, eng)
}

// AffineOf returns the affine model a simulated hard drive realizes for
// random IO: setup = expected seek + rotation + overhead, per-byte = inverse
// bandwidth. Use it to tune node sizes analytically (Corollaries 6/7/11/12)
// before validating empirically.
func AffineOf(prof HDDProfile) Affine {
	return Affine{Setup: prof.ExpectedSetup().Seconds(), PerByte: 1 / prof.Bandwidth}
}

// OptimalBTreeNodeBytes returns Corollary 7's optimal B-tree node size for
// point operations on the given drive.
func OptimalBTreeNodeBytes(prof HDDProfile, entryBytes int) int {
	return int(core.OptimalBTreeNodeBytes(AffineOf(prof), float64(entryBytes)))
}

// OptimalBeTreeParams returns Corollary 12's Bε-tree fanout and node size
// for the given drive: queries optimal to low-order terms, inserts
// Θ(log(1/α)) faster than any B-tree's point operations.
func OptimalBeTreeParams(prof HDDProfile, entryBytes, pivotBytes int) (fanout int, nodeBytes int) {
	f, b := core.OptimalBeTreeParams(AffineOf(prof), float64(entryBytes), float64(pivotBytes))
	return int(f), int(b)
}

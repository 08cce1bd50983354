// Package node is the one way to boot a serving node: Start turns a
// declarative Spec — a device, a tree, a durability setup, a server config,
// optionally a primary to tail — into a listening server, in the one order
// that works:
//
//	device/store → engine → durability + shipping → tree → Durable wrapper
//	→ preload + settle + sync → tracer calibration → shared clock
//	→ server.New → listen → shipper
//
// and Close undoes it (shipper first, so no shipped apply races the server
// teardown). cmd/kvserve, the serving experiments (E20, E22–E24) and the
// cluster tests are Spec literals over it; a new topology is a new Spec,
// not a new boot path. NewDevice and NewTree are the by-name constructors
// the command-line tools share.
package node

import (
	"errors"
	"fmt"
	"sync"

	"iomodels/internal/betree"
	"iomodels/internal/btree"
	"iomodels/internal/cluster"
	"iomodels/internal/engine"
	"iomodels/internal/lsm"
	"iomodels/internal/mqssd"
	"iomodels/internal/obs"
	"iomodels/internal/pdamdev"
	"iomodels/internal/server"
	"iomodels/internal/sim"
	"iomodels/internal/ssd"
	"iomodels/internal/storage"
	"iomodels/internal/workload"
)

// Spec declares a node. Zero values select the defaults noted per field.
type Spec struct {
	// Device is the timing model the engine runs on. Store, when set, is
	// used instead: a caller-built byte store (a storage.FaultStore image)
	// that already wraps its device.
	Device storage.Device
	Store  storage.ByteStore
	// CacheBytes is the engine's cache budget.
	CacheBytes int64

	// Tree is the dictionary kind (see NewTree), NodeBytes its node size
	// (btree/betree) and Keys the key/value widths it is sized for and
	// preloaded with (zero: workload.DefaultSpec).
	Tree      string
	NodeBytes int
	Keys      workload.KeySpec

	// Durability, when non-nil, enables the WAL with this config and
	// publishes the commit stream through a ship ring of ShipCap records
	// (0: the engine default): every durable node ships, so a solo node can
	// gain a replica later and a promoted replica serves pulls at once.
	Durability *engine.DurabilityConfig
	ShipCap    int

	// Items is how many keys to preload before serving.
	Items int64

	// Server configures the listening server. OnPromote is the node's to
	// set (it seals the shipper). A Tracer without cost models is
	// calibrated against the device at the preloaded region before serving.
	Server server.Config

	// Shipper, when its Primary is set, makes the node tail that primary's
	// WAL ship stream (the caller sets Server.Role to match).
	Shipper cluster.ShipperConfig
}

// Node is a running node.
type Node struct {
	Eng     *engine.Engine
	Srv     *server.Server
	Addr    string // the bound listen address
	Clock   *engine.SharedClock
	Shipper *cluster.Shipper // nil unless the node tails a primary

	closeOnce sync.Once
	closeErr  error
}

// Start boots spec into a listening node.
func Start(spec Spec) (*Node, error) {
	keys := spec.Keys
	if keys == (workload.KeySpec{}) {
		keys = workload.DefaultSpec()
	}
	ecfg := engine.Config{CacheBytes: spec.CacheBytes}
	var eng *engine.Engine
	if spec.Store != nil {
		eng = engine.FromStore(ecfg, spec.Store, sim.New())
	} else {
		eng = engine.New(ecfg, spec.Device, sim.New())
	}
	durable := spec.Durability != nil
	if durable {
		if err := eng.EnableDurability(*spec.Durability); err != nil {
			return nil, fmt.Errorf("durability: %w", err)
		}
		if err := eng.EnableShipping(spec.ShipCap); err != nil {
			return nil, fmt.Errorf("shipping: %w", err)
		}
	}
	tree, err := NewTree(spec.Tree, spec.NodeBytes, keys, eng)
	if err != nil {
		return nil, err
	}
	writer := tree.Dictionary
	if durable {
		d, err := eng.Durable(spec.Tree, writer)
		if err != nil {
			return nil, fmt.Errorf("durable %s: %w", spec.Tree, err)
		}
		writer = d
	}
	if spec.Items > 0 {
		workload.Load(writer, keys, spec.Items)
		tree.Flush()
		if durable {
			if err := eng.Sync(); err != nil {
				return nil, fmt.Errorf("preload sync: %w", err)
			}
		}
	}
	// Calibrate at the workload's locality: the preloaded region when there
	// is one (seek cost on a mechanical model grows with distance), the
	// whole device otherwise.
	if t := spec.Server.Tracer; t != nil && t.Models() == nil {
		ccfg := obs.CalibrationConfig{BlockBytes: int64(spec.NodeBytes), RegionBytes: eng.HighWater()}
		if models, ok := obs.ModelsFor(eng.Device(), ccfg); ok {
			t.SetModels(models)
		}
	}

	n := &Node{Eng: eng, Clock: engine.NewSharedClock()}
	eng.AdoptSharedClock(n.Clock)
	cfg := spec.Server
	// The shipper feeds the server's replica apply path, so it is built
	// after the server and OnPromote closes over the node.
	cfg.OnPromote = func() (uint64, error) {
		if n.Shipper == nil {
			return 0, errors.New("no shipper to seal (node is not a replica)")
		}
		return n.Shipper.Promote(eng)
	}
	n.Srv, err = server.New(cfg, server.Backend{Eng: eng, Clock: n.Clock, NewSession: tree.Session, Writer: writer})
	if err != nil {
		return nil, err
	}
	if spec.Shipper.Primary != "" {
		n.Shipper = cluster.NewShipper(n.Srv, spec.Shipper)
	}
	bound, err := n.Srv.ListenAndServe()
	if err != nil {
		n.Srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	n.Addr = bound.String()
	if n.Shipper != nil {
		n.Shipper.Start()
	}
	return n, nil
}

// Close stops the node: the shipper first (no shipped apply may race the
// server teardown), then the server. Safe to call more than once and from
// several goroutines; every call returns the first call's result.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		if n.Shipper != nil {
			n.Shipper.Stop()
		}
		n.closeErr = n.Srv.Close()
	})
	return n.closeErr
}

// NewDevice builds a serving device model by name. pdam is the Definition 1
// device with p slots per step — the one-queue case of the mq stepper, so
// it takes its block size and step length from mq like the mq device does;
// ssd is the default mechanistic profile (its own capacity).
func NewDevice(kind string, p int, mq mqssd.Config, capacity int64) (storage.Device, error) {
	switch kind {
	case "pdam":
		return pdamdev.New(p, mq.BlockBytes, mq.StepTime).Storage(capacity), nil
	case "mq":
		return mqssd.New(mq).Storage(capacity), nil
	case "ssd":
		return ssd.New(ssd.DefaultProfile()), nil
	}
	return nil, fmt.Errorf("unknown device %q (want pdam, ssd, or mq)", kind)
}

// Tree is a dictionary built by NewTree: the tree itself (the owner-side
// mutation target), its per-client read sessions, and its settle step.
type Tree struct {
	engine.Dictionary
	Session func(*engine.Client) engine.Dictionary
	Flush   func()
}

// NewTree builds a dictionary by name on eng: btree (or b), betree (be) at
// the default fanout with the Optimized layout, or lsm at its defaults.
func NewTree(kind string, nodeBytes int, keys workload.KeySpec, eng *engine.Engine) (Tree, error) {
	switch kind {
	case "btree", "b":
		t, err := btree.New(btree.Config{
			NodeBytes: nodeBytes, MaxKeyBytes: keys.KeyBytes, MaxValueBytes: keys.ValueBytes,
		}, eng)
		if err != nil {
			return Tree{}, fmt.Errorf("btree: %w", err)
		}
		return Tree{t, func(c *engine.Client) engine.Dictionary { return t.Session(c) }, t.Flush}, nil
	case "betree", "be":
		t, err := betree.New(betree.Config{
			NodeBytes: nodeBytes, MaxFanout: betree.DefaultFanout,
			MaxKeyBytes: keys.KeyBytes, MaxValueBytes: keys.ValueBytes,
		}.Optimized(), eng)
		if err != nil {
			return Tree{}, fmt.Errorf("betree: %w", err)
		}
		return Tree{t, func(c *engine.Client) engine.Dictionary { return t.Session(c) }, t.Flush}, nil
	case "lsm":
		t, err := lsm.New(lsm.DefaultConfig(), eng)
		if err != nil {
			return Tree{}, fmt.Errorf("lsm: %w", err)
		}
		return Tree{t, func(c *engine.Client) engine.Dictionary { return t.Session(c) }, t.Flush}, nil
	}
	return Tree{}, fmt.Errorf("unknown tree %q (want btree, betree, or lsm)", kind)
}

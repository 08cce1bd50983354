package node_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"iomodels/internal/cluster"
	"iomodels/internal/engine"
	"iomodels/internal/node"
	"iomodels/internal/server"
	"iomodels/internal/workload"
)

// smallWAL keeps a durable test node's log region and dirty-set budget a few
// MiB instead of the serving defaults' tens.
var smallWAL = engine.DurabilityConfig{LogBytes: 8 << 20, GroupBytes: 1 << 20, JournalBytes: 4 << 20}

func clientOpts() server.Options {
	return server.Options{RequestTimeout: 2 * time.Second, ConnectTimeout: time.Second}
}

// TestStartEveryArm boots every device × tree × durability combination the
// package owns, round-trips a write and reads over TCP (one preloaded key,
// one fresh), and checks the scheduler shape the server derived from the
// device's topology — the values server.Config.withDefaults computed from
// its two per-device hint assertions before storage.Topology replaced them:
// pdam P=16 → 1 lane × 16, the E23 mq profile → 4 × 4 (its queues ×
// depth), the default ssd → 1 × 12 (its die count).
func TestStartEveryArm(t *testing.T) {
	const items = 300
	keys := workload.DefaultSpec()
	for _, dev := range []struct {
		kind                    string
		lanes, batch, readQueue int
	}{
		{"pdam", 1, 16, 64},
		{"mq", 4, 4, 64},
		{"ssd", 1, 12, 48},
	} {
		for _, tree := range []string{"btree", "betree", "lsm"} {
			for _, durable := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/durable=%v", dev.kind, tree, durable), func(t *testing.T) {
					d, err := node.NewDevice(dev.kind, 16)
					if err != nil {
						t.Fatal(err)
					}
					spec := node.Spec{
						Device:     d,
						CacheBytes: 4 << 20,
						Tree:       tree,
						NodeBytes:  64 << 10,
						Items:      items,
						Server:     server.Config{Addr: "127.0.0.1:0"},
					}
					if durable {
						spec.Durability = &smallWAL
					}
					n, err := node.Start(spec)
					if err != nil {
						t.Fatal(err)
					}
					defer n.Close()

					cfg := n.Srv.Config()
					if cfg.ReadLanes != dev.lanes || cfg.BatchIOs != dev.batch || cfg.ReadQueue != dev.readQueue {
						t.Errorf("scheduler shape = %d lanes × %d, read queue %d; want %d × %d, %d",
							cfg.ReadLanes, cfg.BatchIOs, cfg.ReadQueue, dev.lanes, dev.batch, dev.readQueue)
					}
					if got := n.Eng.ShipStats().Enabled; got != durable {
						t.Errorf("shipping enabled = %v on a durable=%v node", got, durable)
					}

					c, err := server.DialOpts(n.Addr, clientOpts())
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					if v, ok, err := c.Get(keys.Key(7)); err != nil || !ok || !bytes.Equal(v, keys.Value(7)) {
						t.Fatalf("preloaded key: %q, %v, %v", v, ok, err)
					}
					k, v := keys.Key(items+1), []byte("fresh")
					if err := c.Put(k, v); err != nil {
						t.Fatal(err)
					}
					if got, ok, err := c.Get(k); err != nil || !ok || !bytes.Equal(got, v) {
						t.Fatalf("round trip: %q, %v, %v", got, ok, err)
					}

					if err := n.Close(); err != nil {
						t.Fatalf("Close: %v", err)
					}
					if err := n.Close(); err != nil {
						t.Fatalf("second Close: %v", err)
					}
				})
			}
		}
	}
}

// TestExplicitLaneKeepsEffectiveParallelism: forcing one lane on the mq
// device sizes its batch from the topology's realizable parallelism (8 on
// the E23 profile), not the per-queue target and not the raw slot count.
func TestExplicitLaneKeepsEffectiveParallelism(t *testing.T) {
	d, err := node.NewDevice("mq", 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.Start(node.Spec{
		Device: d, CacheBytes: 1 << 20, Tree: "btree", NodeBytes: 4 << 10,
		Server: server.Config{Addr: "127.0.0.1:0", ReadLanes: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if cfg := n.Srv.Config(); cfg.ReadLanes != 1 || cfg.BatchIOs != 8 {
		t.Fatalf("scheduler shape = %d × %d, want 1 × 8", cfg.ReadLanes, cfg.BatchIOs)
	}
}

// TestPrimaryReplicaPair: a Spec with a Shipper tails its primary, refuses
// client writes, and promotes through the node-wired OnPromote — after
// which it is a primary with every shipped write.
func TestPrimaryReplicaPair(t *testing.T) {
	spec := func(role server.Role) node.Spec {
		d, err := node.NewDevice("pdam", 16)
		if err != nil {
			t.Fatal(err)
		}
		return node.Spec{
			Device: d, CacheBytes: 1 << 20, Tree: "btree", NodeBytes: 4 << 10,
			Durability: &smallWAL,
			Server:     server.Config{Addr: "127.0.0.1:0", Role: role},
		}
	}
	p, err := node.Start(spec(server.RolePrimary))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rs := spec(server.RoleReplica)
	rs.Shipper = cluster.ShipperConfig{Primary: p.Addr, Opts: clientOpts()}
	r, err := node.Start(rs)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if p.Shipper != nil || r.Shipper == nil {
		t.Fatalf("shippers: primary %v, replica %v", p.Shipper, r.Shipper)
	}

	pc, err := server.DialOpts(p.Addr, clientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	const writes = 50
	keys := workload.DefaultSpec()
	for i := uint64(0); i < writes; i++ {
		if err := pc.Put(keys.Key(i), keys.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	committed := p.Eng.ShipStats().CommittedLSN
	for deadline := time.Now().Add(10 * time.Second); r.Shipper.Cursor() < committed; {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %d of %d (shipper err: %v)", r.Shipper.Cursor(), committed, r.Shipper.Err())
		}
		time.Sleep(time.Millisecond)
	}

	rc, err := server.DialOpts(r.Addr, clientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := rc.Put([]byte("k"), []byte("v")); !errors.Is(err, server.ErrNotPrimary) {
		t.Fatalf("replica accepted a write: %v", err)
	}
	if _, err := rc.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if err := rc.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("promoted node refused a write: %v", err)
	}
	for i := uint64(0); i < writes; i++ {
		if v, ok, err := rc.Get(keys.Key(i)); err != nil || !ok || !bytes.Equal(v, keys.Value(i)) {
			t.Fatalf("shipped key %d on the promoted replica: %q, %v, %v", i, v, ok, err)
		}
	}
}

// TestCloseLeavesNoGoroutines: a sync-ship primary and a replica tailing it,
// driven through Put, Get, Scan and a snapshot, leave no goroutine behind
// once the client and both nodes are closed — the server's writer, accept
// loop and connection handlers, and the replica's shipper each have a way
// to be stopped, and Close uses it. A Close that hangs fails the test at its
// deadline instead of timing out the package.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	spec := func(cfg server.Config) node.Spec {
		d, err := node.NewDevice("pdam", 16)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Addr = "127.0.0.1:0"
		return node.Spec{
			Device: d, CacheBytes: 1 << 20, Tree: "btree", NodeBytes: 4 << 10,
			Durability: &smallWAL, Items: 100, Server: cfg,
		}
	}
	p, err := node.Start(spec(server.Config{Role: server.RolePrimary, SyncShip: true}))
	if err != nil {
		t.Fatal(err)
	}
	rs := spec(server.Config{Role: server.RoleReplica})
	rs.Shipper = cluster.ShipperConfig{Primary: p.Addr, Opts: clientOpts()}
	r, err := node.Start(rs)
	if err != nil {
		p.Close()
		t.Fatal(err)
	}
	c, err := server.DialOpts(p.Addr, clientOpts())
	if err == nil {
		err = drive(c)
	}
	closed := make(chan error, 1)
	go func() {
		if c != nil {
			c.Close()
		}
		rerr := r.Close()
		closed <- errors.Join(rerr, p.Close())
	}()
	select {
	case cerr := <-closed:
		if err = errors.Join(err, cerr); err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("closing the client, the replica and the primary hung past 10 s")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before boot:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// drive runs one of each request kind through c: a Put (acknowledged only
// once the replica has pulled it), a Get, a Scan, and a snapshot opened,
// read and released.
func drive(c *server.Client) error {
	keys := workload.DefaultSpec()
	if err := c.Put(keys.Key(1000), []byte("v")); err != nil {
		return fmt.Errorf("put: %w", err)
	}
	if _, ok, err := c.Get(keys.Key(7)); err != nil || !ok {
		return fmt.Errorf("get: %v, %v", ok, err)
	}
	if _, err := c.Scan(keys.Key(0), keys.Key(50), 10); err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	id, _, err := c.SnapOpen()
	if err != nil {
		return fmt.Errorf("snapshot open: %w", err)
	}
	if _, _, err := c.SnapGet(id, keys.Key(7)); err != nil {
		return fmt.Errorf("snapshot get: %w", err)
	}
	return c.SnapRelease(id)
}

// TestDurableBootAllocatesWhatItWrites boots the benchmark's mixed-durable-c16
// node — kvserve -durable -items 65540 at its defaults: a serving-size log
// region, so the first tree page sits 64 MiB into the image — and bounds what
// the boot allocates in total. The image holds ~19 MiB of written blocks; a
// store that grows a flat image by copying it allocates hundreds of MiB to get
// there.
func TestDurableBootAllocatesWhatItWrites(t *testing.T) {
	d, err := node.NewDevice("pdam", 16)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := node.Start(node.Spec{
		Device: d, CacheBytes: 64 << 20, Tree: "btree", NodeBytes: 4 << 10,
		Durability: &engine.DurabilityConfig{}, Items: 65540,
		Server: server.Config{Addr: "127.0.0.1:0"},
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const mib = 1 << 20
	alloc, resident := (after.TotalAlloc-before.TotalAlloc)/mib, n.Eng.Store().Resident()/mib
	t.Logf("boot allocated %d MiB in total; store image resident %d MiB of a %d MiB address range",
		alloc, resident, n.Eng.HighWater()/mib)
	if alloc > 200 {
		t.Errorf("boot allocated %d MiB in total, want <= 200", alloc)
	}
	if resident > 128 {
		t.Errorf("store image holds %d MiB resident, want <= 128", resident)
	}
}

// TestUnknownNames: the by-name constructors refuse what they do not own.
func TestUnknownNames(t *testing.T) {
	if _, err := node.NewDevice("hdd", 16); err == nil {
		t.Error("NewDevice(hdd) succeeded; hdd is not a serving device")
	}
	d, _ := node.NewDevice("pdam", 16)
	if _, err := node.Start(node.Spec{Device: d, CacheBytes: 1 << 20, Tree: "trie", NodeBytes: 4 << 10}); err == nil {
		t.Error("Start with an unknown tree succeeded")
	}
}

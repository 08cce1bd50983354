// E24 (replication lag vs write latency): the cost and the payoff of the
// sync-ship gate, measured through the full cluster stack. A durable
// primary and a WAL-shipping replica run as two in-process servers joined
// by a real TCP shipper; closed-loop writer connections hammer the primary
// while the replica's lag estimator (the same one kvtop reads off /stats)
// accounts how far behind it runs, in LSNs and in seconds.
//
// Two rounds on fresh nodes each:
//
//	async  the primary acknowledges at local WAL commit; the replica tails
//	       the ship stream at its own pace. Writes are cheap, lag is
//	       whatever the pull loop leaves unapplied.
//	sync   the primary's ack gate holds every write until the replica has
//	       pulled and applied it. Each acknowledged write has provably
//	       reached the replica (acked LSN == committed LSN), and the gate's
//	       wall-wait histogram prices that guarantee per operation.
//
// The experiment's claim is the trade-off direction, not absolute numbers:
// the sync round must show gate waits and a higher write latency than the
// async round, and in exchange must finish with nothing acknowledged left
// unreplicated.

package experiments

import (
	"fmt"
	"time"

	"iomodels/internal/cluster"
	"iomodels/internal/node"
	"iomodels/internal/server"
	"iomodels/internal/sim"
	"iomodels/internal/storage"
	"iomodels/internal/workload"
)

// ShipLagConfig parameterizes E24.
type ShipLagConfig struct {
	Writers         int // concurrent closed-loop writer connections
	WritesPerWriter int
	IOTime          sim.Time      // per-IO device latency on both nodes
	CacheBytes      int64         // engine budget per node
	CatchUp         time.Duration // max wait for the replica to drain after load
	Spec            workload.KeySpec
	Seed            uint64
}

// DefaultShipLagConfig is laptop-scale: enough writers that commits overlap
// pulls (so the async round accrues visible lag) and enough writes that the
// lag estimator sees a real sample stream.
func DefaultShipLagConfig() ShipLagConfig {
	return ShipLagConfig{
		Writers:         8,
		WritesPerWriter: 150,
		IOTime:          50 * sim.Microsecond,
		CacheBytes:      1 << 20,
		CatchUp:         10 * time.Second,
		Spec:            workload.DefaultSpec(),
		Seed:            24,
	}
}

// ShipLagRow is one round's measurement. The latency percentiles are the
// writers' wall-clock put latency on the primary; GateWaits/GateP99Us are
// the primary's sync-ship ack-gate histogram (zero in the async round); the
// Lag* fields are the replica's lag-estimator snapshot after the run.
type ShipLagRow struct {
	Mode       string // "async" or "sync"
	Writers    int
	Writes     int64
	P50Us      float64
	P99Us      float64
	GateWaits  int64
	GateP99Us  float64
	LagSamples int64
	LagMaxMs   float64 // peak per-pull staleness of applied records
	LagMaxLSNs int64   // peak committed-but-unapplied backlog seen by a pull
	AckedLSN   int64   // primary: highest replica-acknowledged LSN at the end
	FinalLSN   int64   // primary: committed LSN at the end
}

// shipFlatDev is a stateless fixed-latency timing device: E24 measures the
// replication protocol, not device geometry, so every IO costs the same.
type shipFlatDev struct {
	capacity int64
	ioTime   sim.Time
}

func (d shipFlatDev) Access(now sim.Time, _ storage.Op, _, _ int64) sim.Time {
	return now + d.ioTime
}
func (d shipFlatDev) Capacity() int64 { return d.capacity }
func (d shipFlatDev) Name() string    { return "flat" }

// startShipNode boots a durable, shipping-enabled B-tree server in the given
// role. A replica gets its shipper started against primaryAddr.
func startShipNode(cfg ShipLagConfig, role server.Role, syncShip bool, primaryAddr string) (*node.Node, error) {
	base := ServeBase{NodeBlocks: 1, CacheBytes: cfg.CacheBytes, Spec: cfg.Spec}
	return base.start(4<<10, true, node.Spec{
		Store: storage.NewFaultStore(shipFlatDev{capacity: 256 << 20, ioTime: cfg.IOTime}),
		Server: server.Config{
			Shards:          1,
			Role:            role,
			SyncShip:        syncShip,
			SyncShipTimeout: 5 * time.Second,
		},
		Shipper: cluster.ShipperConfig{
			Primary: primaryAddr,
			Opts:    server.Options{RequestTimeout: time.Second, ConnectTimeout: time.Second},
		},
	})
}

// ShipLag runs E24: the async round first, then the sync round.
func ShipLag(cfg ShipLagConfig) ([]ShipLagRow, error) {
	var rows []ShipLagRow
	for _, mode := range []struct {
		name string
		sync bool
	}{{"async", false}, {"sync", true}} {
		row, err := shipLagRound(cfg, mode.name, mode.sync)
		if err != nil {
			return nil, fmt.Errorf("E24 %s: %w", mode.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// shipLagRound boots a fresh primary+replica pair, runs the closed-loop
// write load, waits for the replica to drain, and snapshots both sides.
func shipLagRound(cfg ShipLagConfig, mode string, syncShip bool) (ShipLagRow, error) {
	primary, err := startShipNode(cfg, server.RolePrimary, syncShip, "")
	if err != nil {
		return ShipLagRow{}, err
	}
	defer primary.Close()
	replica, err := startShipNode(cfg, server.RoleReplica, false, primary.Addr)
	if err != nil {
		return ShipLagRow{}, err
	}
	defer replica.Close()

	// Disjoint key ranges per writer, shuffled within the range so tree
	// paths differ between consecutive puts.
	lat, err := dialRun(primary.Addr, cfg.Writers, cfg.WritesPerWriter, cfg.Seed, nil, func(c *conn, _ int) error {
		id := uint64(c.i*cfg.WritesPerWriter) + uint64(c.rng.Int63n(int64(cfg.WritesPerWriter)))
		if err := c.Put(cfg.Spec.Key(id), cfg.Spec.Value(id)); err != nil {
			return fmt.Errorf("writer %d: %w", c.i, err)
		}
		return nil
	})
	if err != nil {
		return ShipLagRow{}, err
	}

	// Drain: the async round can finish the load with records still in
	// flight; the row's Acked/Final comparison is only meaningful once the
	// replica has caught up (or demonstrably cannot).
	committed := primary.Eng.ShipStats().CommittedLSN
	deadline := time.Now().Add(cfg.CatchUp)
	for replica.Srv.ShipAppliedLSN() < committed {
		if err := replica.Shipper.Err(); err != nil {
			return ShipLagRow{}, err
		}
		if time.Now().After(deadline) {
			return ShipLagRow{}, fmt.Errorf("replica stuck at LSN %d of %d",
				replica.Srv.ShipAppliedLSN(), committed)
		}
		time.Sleep(time.Millisecond)
	}

	psnap := primary.Srv.Snapshot()
	rsnap := replica.Srv.Snapshot()
	return ShipLagRow{
		Mode:       mode,
		Writers:    cfg.Writers,
		Writes:     int64(cfg.Writers * cfg.WritesPerWriter),
		P50Us:      lat.P50Us,
		P99Us:      lat.P99Us,
		GateWaits:  psnap.GateWait.Count,
		GateP99Us:  psnap.GateWait.P99Us,
		LagSamples: rsnap.ShipLag.Samples,
		LagMaxMs:   rsnap.ShipLag.MaxSeconds * 1e3,
		LagMaxLSNs: rsnap.ShipLag.MaxLSNs,
		AckedLSN:   psnap.ShipAckedLSN,
		FinalLSN:   int64(committed),
	}, nil
}

// RenderShipLag formats E24, one row per round.
func RenderShipLag(rows []ShipLagRow) string {
	return renderRows("E24 (ship lag): sync-ship write-latency cost vs replication-lag guarantee", rows, []column[ShipLagRow]{
		{"mode", func(r ShipLagRow) string { return r.Mode }},
		{"writers", func(r ShipLagRow) string { return intStr(r.Writers) }},
		{"writes", func(r ShipLagRow) string { return intStr(int(r.Writes)) }},
		{"put p50 (wall µs)", func(r ShipLagRow) string { return fmt0(r.P50Us) }},
		{"put p99 (wall µs)", func(r ShipLagRow) string { return fmt0(r.P99Us) }},
		{"gate waits", func(r ShipLagRow) string { return intStr(int(r.GateWaits)) }},
		{"gate p99 (wall µs)", func(r ShipLagRow) string { return fmt0(r.GateP99Us) }},
		{"lag samples", func(r ShipLagRow) string { return intStr(int(r.LagSamples)) }},
		{"lag max (wall ms)", func(r ShipLagRow) string { return f3(r.LagMaxMs) }},
		{"lag max lsns", func(r ShipLagRow) string { return intStr(int(r.LagMaxLSNs)) }},
	})
}

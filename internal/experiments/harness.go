// The serving harness: E20 and E22–E24 are rows of it.
//
// Every serving experiment is the same four moves: boot a B-tree node from a
// node.Spec (ServeBase.start fills in what they share), drive it with k
// closed-loop TCP connections (conns.run is the one driver and dialConns the
// one place that dials), read virtual time off the node's shared clock and
// wall time off the driver's histogram, and render rows through a column
// list (render.go). What differs per experiment is the Spec and the op.

package experiments

import (
	"fmt"
	"time"

	"iomodels/internal/engine"
	"iomodels/internal/node"
	"iomodels/internal/pdamdev"
	"iomodels/internal/server"
	"iomodels/internal/sim"
	"iomodels/internal/stats"
	"iomodels/internal/workload"
)

// ServeBase is the part of a serving experiment's config E20, E22 and E23
// share: the preloaded B-tree and the engine budget under it.
type ServeBase struct {
	Items      int64
	NodeBlocks int   // B-tree node size in device blocks
	CacheBytes int64 // engine budget (keep << data so gets hit disk)
	Spec       workload.KeySpec
	Seed       uint64
}

// start boots a B-tree server for a serving experiment, durable (WAL, group
// commit, ship ring) or not. spec carries what differs between experiments —
// the device or store and the server's scheduler and cluster settings; start
// fills in the rest.
func (b ServeBase) start(blockBytes int64, durable bool, spec node.Spec) (*node.Node, error) {
	spec.CacheBytes = b.CacheBytes
	spec.Tree = "btree"
	spec.NodeBytes = b.NodeBlocks * int(blockBytes)
	spec.Keys = b.Spec
	spec.Items = b.Items
	if durable {
		spec.Durability = &engine.DurabilityConfig{
			LogBytes:     16 << 20,
			GroupBytes:   1 << 20, // flush sharing must come from group commit, not size
			JournalBytes: 8 << 20,
		}
	}
	spec.Server.Addr = "127.0.0.1:0"
	return node.Start(spec)
}

// PDAMDevice is the abstract PDAM device E20 and E22 serve from.
type PDAMDevice struct {
	P          int      // device parallelism (IO slots per step)
	BlockBytes int64    // B, the PDAM IO size
	StepTime   sim.Time // wall-clock length of one step
}

// startPDAM boots a server on a fresh PDAM device with the given read-batch
// size. The read queue is sized for the largest client count so admission
// control never sheds experiment load.
func (b ServeBase) startPDAM(d PDAMDevice, batch, maxClients int, durable bool) (*node.Node, error) {
	return b.start(d.BlockBytes, durable, node.Spec{
		Device: pdamdev.New(d.P, d.BlockBytes, d.StepTime).Storage(1 << 31),
		Server: server.Config{BatchIOs: batch, ReadQueue: 4 * maxClients},
	})
}

// conn is one connection of a closed loop: its index among its peers and a
// random stream of its own.
type conn struct {
	*server.Client
	i   int
	rng *stats.RNG
}

// conns is a set of connections to one server, driven closed-loop.
type conns []*conn

// dialConns opens k connections to addr, connection i drawing from
// stats.NewRNG(seed).Split(i). It is the one place a serving experiment
// dials. Each connection completes a Ping before dialConns returns: the
// server gives a connection its virtual cursor — the clock mark of that
// moment — when it accepts it, so a closed loop's whole population must be
// accepted before its first request moves the mark.
func dialConns(addr string, k int, seed uint64) (conns, error) {
	root := stats.NewRNG(seed)
	cs := make(conns, 0, k)
	for i := 0; i < k; i++ {
		cl, err := server.Dial(addr)
		if err == nil {
			cs = append(cs, &conn{Client: cl, i: i, rng: root.Split(uint64(i))})
			err = cl.Ping()
		}
		if err != nil {
			cs.close()
			return nil, err
		}
	}
	return cs, nil
}

func (cs conns) close() {
	for _, c := range cs {
		c.Close()
	}
}

// run drives every connection closed-loop from a goroutine of its own:
// connection c calls op(c, j) for j = 0, 1, … n-1 (n < 0: until stop is
// closed), each call timed, and gives up at its first error. It returns the
// wall-clock latencies of all connections and the first error.
func (cs conns) run(n int, stop <-chan struct{}, op func(c *conn, j int) error) (stats.LatencyMicros, error) {
	hist := stats.NewLatencyHist()
	loop := func(c *conn) error {
		for j := 0; j != n; j++ {
			select {
			case <-stop: // never ready when stop is nil
				return nil
			default:
			}
			t0 := time.Now()
			if err := op(c, j); err != nil {
				return err
			}
			hist.Observe(int64(time.Since(t0)))
		}
		return nil
	}
	errs := make(chan error, len(cs))
	for _, c := range cs {
		go func(c *conn) { errs <- loop(c) }(c)
	}
	var first error
	for range cs {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return hist.Snapshot().Micros(), first
}

// closedLoop dials k connections, runs them (see conns.run) and closes them.
func closedLoop(addr string, k, n int, seed uint64, stop <-chan struct{}, op func(c *conn, j int) error) (stats.LatencyMicros, error) {
	cs, err := dialConns(addr, k, seed)
	if err != nil {
		return stats.LatencyMicros{}, err
	}
	defer cs.close()
	return cs.run(n, stop, op)
}

// schedulerMode is one read-scheduler configuration under comparison, as
// server.Config spells it (ReadLanes, BatchIOs).
type schedulerMode struct {
	name         string
	lanes, batch int
}

// schedulerRows boots one server per mode and measures a read round at every
// client count against it: the body of E20's and E23's serving tables.
func (b ServeBase) schedulerRows(step sim.Time, clients []int, ops int,
	start func(lanes, batch int) (*node.Node, error), modes ...schedulerMode) ([]ServingRow, error) {
	var rows []ServingRow
	for _, mode := range modes {
		sb, err := start(mode.lanes, mode.batch)
		if err != nil {
			return nil, err
		}
		for _, k := range clients {
			row, err := b.readRound(sb, step, mode.name, k, ops)
			if err != nil {
				sb.Close()
				return nil, err
			}
			rows = append(rows, row)
		}
		sb.Close()
	}
	return rows, nil
}

// readRound cold-starts the cache and measures k closed-loop TCP clients
// doing ops random gets each, in device steps and wall-clock latency.
func (b ServeBase) readRound(sb *node.Node, step sim.Time, mode string, k, ops int) (ServingRow, error) {
	sb.Eng.Pager().EvictAll(sb.Eng.Owner())
	sb.Eng.Pager().ResetStats()
	start := sb.Clock.Now()
	lat, err := closedLoop(sb.Addr, k, ops, b.Seed+uint64(k), nil, func(c *conn, _ int) error {
		key := b.Spec.Key(uint64(c.rng.Int63n(b.Items)))
		if _, ok, err := c.Get(key); err != nil {
			return fmt.Errorf("serving get: %w", err)
		} else if !ok {
			return fmt.Errorf("serving: lost key %q", key)
		}
		return nil
	})
	if err != nil {
		return ServingRow{}, err
	}
	steps := float64(sb.Clock.Now()-start) / float64(step)
	return ServingRow{
		Mode:       mode,
		Clients:    k,
		Steps:      steps,
		Throughput: float64(k*ops) / steps,
		HitRatio:   sb.Eng.Pager().Stats().HitRatio(),
		P50Us:      lat.P50Us,
		P99Us:      lat.P99Us,
	}, nil
}

// renderSchedulerRows formats a scheduler comparison, one row per (mode,
// clients): E20's and E23's serving tables.
func renderSchedulerRows(title string, rows []ServingRow) string {
	return renderRows(title, rows, []column[ServingRow]{
		{"scheduler", func(r ServingRow) string { return r.Mode }},
		{"clients k", func(r ServingRow) string { return intStr(r.Clients) }},
		{"steps", func(r ServingRow) string { return fmt0(r.Steps) }},
		{"gets/step", func(r ServingRow) string { return f3(r.Throughput) }},
		{"hit%", func(r ServingRow) string { return f2(r.HitRatio * 100) }},
		{"p50 µs", func(r ServingRow) string { return fmt0(r.P50Us) }},
		{"p99 µs", func(r ServingRow) string { return fmt0(r.P99Us) }},
	})
}

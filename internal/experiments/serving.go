// E20 (serving / §8 applied): the Lemma 13 effect measured through the full
// network stack. A kvserve instance fronts a B-tree on the abstract PDAM
// device; k closed-loop TCP clients run random gets. The server's read
// scheduler keeps a device-parallelism-sized set of reads in flight, so aggregate
// throughput in device time steps should grow ~linearly in k up to ~P and
// then plateau — while the same server configured with batch size 1 (the
// DAM-style scheduler, which assumes one IO per step is all a device can do)
// stays flat at ~1/h queries per step no matter how many clients arrive.
//
// A second phase measures group commit: concurrent writer connections must
// share WAL flushes (flushes < records), where a single closed-loop writer
// pays exactly one flush per write.

package experiments

import (
	"fmt"
	"slices"

	"iomodels/internal/node"
	"iomodels/internal/sim"
	"iomodels/internal/workload"
)

// ServingConfig parameterizes E20.
type ServingConfig struct {
	ServeBase
	PDAMDevice

	OpsPerClient int
	Clients      []int // k values for the read phase

	Writers         int // concurrent writer connections (group-commit phase)
	WritesPerWriter int
}

// DefaultServingConfig is laptop-scale but IO-bound.
func DefaultServingConfig() ServingConfig {
	return ServingConfig{
		ServeBase: ServeBase{
			Items:      60_000,
			NodeBlocks: 1,
			CacheBytes: 512 << 10,
			Spec:       workload.DefaultSpec(),
			Seed:       20,
		},
		PDAMDevice:      PDAMDevice{P: 16, BlockBytes: 4 << 10, StepTime: sim.Millisecond},
		OpsPerClient:    60,
		Clients:         []int{1, 2, 4, 8, 16},
		Writers:         32,
		WritesPerWriter: 20,
	}
}

// ServingRow is one (scheduler mode, clients) measurement of the read phase.
// Steps and Throughput are virtual device time; the latency percentiles are
// wall-clock as seen by the TCP clients.
type ServingRow struct {
	Mode       string // "dam" (batch=1) or "pdam" (batch=P)
	Clients    int
	Steps      float64
	Throughput float64 // gets per device step, all clients combined
	HitRatio   float64
	P50Us      float64
	P99Us      float64
}

// ServingCommitRow is one write-phase measurement: WAL flushes consumed by a
// fixed number of acknowledged writes.
type ServingCommitRow struct {
	Writers  int
	Records  int64
	Commits  int64
	PerFlush float64 // records / commits; 1.0 means no commit sharing
}

// Serving runs E20 and returns read-phase rows (dam mode first, then pdam)
// and write-phase rows (serial writer first, then concurrent).
func Serving(cfg ServingConfig) ([]ServingRow, []ServingCommitRow, error) {
	maxK := slices.Max(append([]int{cfg.Writers}, cfg.Clients...))
	rows, err := cfg.schedulerRows(cfg.StepTime, cfg.Clients, cfg.OpsPerClient,
		func(_, batch int) (*node.Node, error) { return cfg.startPDAM(cfg.PDAMDevice, batch, maxK, false) },
		schedulerMode{"dam", 1, 1}, schedulerMode{"pdam", 1, cfg.P})
	if err != nil {
		return nil, nil, err
	}

	var commits []ServingCommitRow
	total := cfg.Writers * cfg.WritesPerWriter
	for _, writers := range []int{1, cfg.Writers} {
		row, err := servingWriteRound(cfg, maxK, writers, total)
		if err != nil {
			return nil, nil, err
		}
		commits = append(commits, row)
	}
	return rows, commits, nil
}

// servingWriteRound boots a durable server and pushes `total` puts through
// `writers` closed-loop connections, returning the WAL flush accounting.
func servingWriteRound(cfg ServingConfig, maxK, writers, total int) (ServingCommitRow, error) {
	sb, err := cfg.startPDAM(cfg.PDAMDevice, cfg.P, maxK, true)
	if err != nil {
		return ServingCommitRow{}, err
	}
	defer sb.Close()
	before := sb.Eng.DurabilityStats()
	per := total / writers
	_, err = dialRun(sb.Addr, writers, per, 0, nil, func(c *conn, j int) error {
		id := uint64(cfg.Items) + uint64(c.i*per+j)
		if err := c.Put(cfg.Spec.Key(id), cfg.Spec.Value(id)); err != nil {
			return fmt.Errorf("serving put: %w", err)
		}
		return nil
	})
	if err != nil {
		return ServingCommitRow{}, err
	}
	after := sb.Eng.DurabilityStats()
	row := ServingCommitRow{
		Writers: writers,
		Records: after.LogRecords - before.LogRecords,
		Commits: after.LogCommits - before.LogCommits,
	}
	if row.Commits > 0 {
		row.PerFlush = float64(row.Records) / float64(row.Commits)
	}
	return row, nil
}

// RenderServing formats the read phase, one row per (mode, clients).
func RenderServing(rows []ServingRow) string {
	return renderSchedulerRows("E20 (serving): closed-loop TCP gets per device step — P-slot scheduler vs DAM-style one-slot", rows)
}

// RenderServingCommit formats the write phase.
func RenderServingCommit(rows []ServingCommitRow) string {
	return renderRows("E20 (group commit): WAL flushes per acknowledged write", rows, []column[ServingCommitRow]{
		{"writers", func(r ServingCommitRow) string { return intStr(r.Writers) }},
		{"records", func(r ServingCommitRow) string { return intStr(int(r.Records)) }},
		{"WAL flushes", func(r ServingCommitRow) string { return intStr(int(r.Commits)) }},
		{"writes/flush", func(r ServingCommitRow) string { return f2(r.PerFlush) }},
	})
}

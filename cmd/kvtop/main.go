// Command kvtop is the cluster's live observability aggregator: given the
// same -cluster topology string loadgen takes, it polls every node's Stats
// op over the KV wire protocol and renders one refreshing table — role,
// shard, LSN positions (applied / durable / replica-acked), replication lag
// in seconds and LSNs, the sync-ship gate's wait tail, per-op latency
// percentiles, pager dirty set, and (when a node runs with -obs) the best
// model-residual p50 per op class.
//
// Usage:
//
//	kvtop -cluster "p0/r0;p1" [-interval 1s]        # live refreshing table
//	kvtop -cluster "p0/r0;p1" -once [-json]          # one poll, table or JSON
//	kvtop -cluster "p0/r0;p1" -watch -max-lag-seconds 2 [-max-residual 0.5]
//
// -once polls once and exits; with -json it emits a machine-readable
// document (each node's full /stats snapshot plus reachability) for
// scripts and the CI smoke test. -watch is the alarm mode: poll once,
// check every replica's lag and every traced node's residuals against the
// bounds, and exit nonzero if any bound is breached or any node is
// unreachable — a healthy cluster exits 0.
//
// The residual bound applies to the best model per op class (the minimum
// p50 across DAM/affine/PDAM/MQ): the alarm is "no model tracks reality",
// not "the intentionally-naive DAM is wrong".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"iomodels/internal/cluster"
	"iomodels/internal/obs"
	"iomodels/internal/server"
)

// node is one endpoint kvtop polls: its topology position plus the address.
type node struct {
	Addr   string `json:"addr"`
	Shard  int    `json:"shard"`
	Expect string `json:"expect"` // topology position: "primary" or "replica"
}

// nodeReport is one node's poll result in the -json document: the topology
// identity, reachability, and the node's own full stats snapshot (so every
// /stats field — ship_lag, sync_gate_wait, listen_addr, ... — is present
// verbatim).
type nodeReport struct {
	node
	Reachable bool                  `json:"reachable"`
	Error     string                `json:"error,omitempty"`
	Stats     *server.StatsSnapshot `json:"stats,omitempty"`
}

// report is the -json document: one poll of the whole topology.
type report struct {
	Cluster string       `json:"cluster"`
	Nodes   []nodeReport `json:"nodes"`
	Alarms  []string     `json:"alarms,omitempty"`
	Healthy bool         `json:"healthy"`
}

func main() {
	clusterFlag := flag.String("cluster", "", "topology to poll: shards ';'-separated, endpoints '/'-separated, primary first")
	addr := flag.String("addr", "", "poll a single node instead of a topology")
	interval := flag.Duration("interval", time.Second, "refresh interval in live mode")
	once := flag.Bool("once", false, "poll once, print, and exit")
	jsonOut := flag.Bool("json", false, "with -once/-watch: emit the machine-readable JSON document")
	watch := flag.Bool("watch", false, "alarm mode: poll once, exit nonzero when a bound is breached or a node is down")
	maxLag := flag.Float64("max-lag-seconds", 0, "with -watch: alarm when a replica's EWMA lag exceeds this many seconds (0: no bound)")
	maxLagLSNs := flag.Float64("max-lag-lsns", 0, "with -watch: alarm when a replica's EWMA lag exceeds this many LSNs (0: no bound)")
	maxResidual := flag.Float64("max-residual", 0, "with -watch: alarm when a traced node's best per-class residual p50 exceeds this ratio (0: no bound)")
	timeout := flag.Duration("timeout", 2*time.Second, "per-node dial/request timeout")
	flag.Parse()

	nodes, err := topology(*clusterFlag, *addr)
	if err != nil {
		fatalf("%v", err)
	}

	opts := server.Options{ConnectTimeout: *timeout, RequestTimeout: *timeout}
	switch {
	case *watch:
		rep := poll(nodes, opts)
		rep.Cluster = *clusterFlag
		rep.Alarms = alarms(rep.Nodes, *maxLag, *maxLagLSNs, *maxResidual)
		rep.Healthy = len(rep.Alarms) == 0
		if *jsonOut {
			emitJSON(rep)
		} else {
			printTable(os.Stdout, rep.Nodes)
			for _, a := range rep.Alarms {
				fmt.Printf("ALARM: %s\n", a)
			}
		}
		if !rep.Healthy {
			os.Exit(1)
		}
	case *once:
		rep := poll(nodes, opts)
		rep.Cluster = *clusterFlag
		rep.Healthy = true
		for _, n := range rep.Nodes {
			if !n.Reachable {
				rep.Healthy = false
			}
		}
		if *jsonOut {
			emitJSON(rep)
		} else {
			printTable(os.Stdout, rep.Nodes)
		}
		if !rep.Healthy {
			os.Exit(1)
		}
	default:
		live(nodes, opts, *interval)
	}
}

// topology resolves the node list from -cluster (loadgen's syntax) or -addr.
func topology(clusterFlag, addr string) ([]node, error) {
	if (clusterFlag == "") == (addr == "") {
		return nil, fmt.Errorf("kvtop: exactly one of -cluster or -addr is required")
	}
	if addr != "" {
		return []node{{Addr: addr, Shard: 0, Expect: "primary"}}, nil
	}
	specs, err := cluster.ParseTopology(clusterFlag)
	if err != nil {
		return nil, err
	}
	var nodes []node
	for si, sp := range specs {
		nodes = append(nodes, node{Addr: sp.Primary, Shard: si, Expect: "primary"})
		for _, ep := range sp.Replicas {
			nodes = append(nodes, node{Addr: ep, Shard: si, Expect: "replica"})
		}
	}
	return nodes, nil
}

// poll fetches every node's stats concurrently (one fresh connection per
// node per poll: a poller must not hold a dead node's connection hostage).
func poll(nodes []node, opts server.Options) report {
	out := report{Nodes: make([]nodeReport, len(nodes))}
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n node) {
			defer wg.Done()
			out.Nodes[i] = pollNode(n, opts)
		}(i, n)
	}
	wg.Wait()
	return out
}

func pollNode(n node, opts server.Options) nodeReport {
	rep := nodeReport{node: n}
	c, err := server.DialOpts(n.Addr, opts)
	if err != nil {
		rep.Error = err.Error()
		return rep
	}
	defer c.Close()
	js, err := c.Stats()
	if err != nil {
		rep.Error = err.Error()
		return rep
	}
	var snap server.StatsSnapshot
	if err := json.Unmarshal(js, &snap); err != nil {
		rep.Error = fmt.Sprintf("bad stats document: %v", err)
		return rep
	}
	rep.Reachable = true
	rep.Stats = &snap
	return rep
}

// alarms evaluates the -watch bounds over one poll.
func alarms(nodes []nodeReport, maxLag, maxLagLSNs, maxResidual float64) []string {
	var out []string
	for _, n := range nodes {
		if !n.Reachable {
			out = append(out, fmt.Sprintf("%s (shard %d): unreachable: %s", n.Addr, n.Shard, n.Error))
			continue
		}
		s := n.Stats
		if maxLag > 0 && s.ShipLag.EWMASeconds > maxLag {
			out = append(out, fmt.Sprintf("%s (shard %d): replication lag %.3fs ewma > %.3fs bound",
				n.Addr, n.Shard, s.ShipLag.EWMASeconds, maxLag))
		}
		if maxLagLSNs > 0 && s.ShipLag.EWMALSNs > maxLagLSNs {
			out = append(out, fmt.Sprintf("%s (shard %d): replication lag %.1f LSNs ewma > %.1f bound",
				n.Addr, n.Shard, s.ShipLag.EWMALSNs, maxLagLSNs))
		}
		if maxResidual > 0 && s.Obs != nil {
			for class, p50 := range bestResiduals(s.Obs.Residuals) {
				if p50 > maxResidual {
					out = append(out, fmt.Sprintf("%s (shard %d): best %s residual p50 %.0f%% > %.0f%% bound",
						n.Addr, n.Shard, class, 100*p50, 100*maxResidual))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// bestResiduals reduces the residual table to the minimum p50 per op class:
// the question the alarm asks is whether any model still predicts the
// device, not whether the worst one does.
func bestResiduals(rs []obs.ResidualSummary) map[string]float64 {
	best := make(map[string]float64)
	for _, r := range rs {
		if r.Count == 0 {
			continue
		}
		if cur, ok := best[r.Class]; !ok || r.P50 < cur {
			best[r.Class] = r.P50
		}
	}
	return best
}

// live refreshes the table until interrupted.
func live(nodes []node, opts server.Options, interval time.Duration) {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		rep := poll(nodes, opts)
		var b strings.Builder
		fmt.Fprintf(&b, "kvtop: %d nodes, refresh %v (ctrl-c quits)\n\n", len(nodes), interval)
		printTable(&b, rep.Nodes)
		// Home + clear-to-end redraw: no flicker, no scrollback spam.
		fmt.Printf("\x1b[H\x1b[2J%s", b.String())
		select {
		case <-sigs:
			fmt.Println("kvtop: bye")
			return
		case <-ticker.C:
		}
	}
}

// printTable renders one poll as an aligned table.
func printTable(w interface{ Write([]byte) (int, error) }, nodes []nodeReport) {
	fmt.Fprintf(w, "%-22s %-8s %3s %7s %9s %9s %9s %8s %7s %9s %12s %12s %7s %s\n",
		"ADDR", "ROLE", "SH", "UP(s)", "APPLIED", "DURABLE", "ACKED",
		"LAG(s)", "LAG(l)", "GATEp99", "get p50/p99", "put p50/p99", "DIRTY", "RESID(p50)")
	for _, n := range nodes {
		if !n.Reachable {
			fmt.Fprintf(w, "%-22s %-8s %3d  DOWN: %s\n", n.Addr, n.Expect+"?", n.Shard, n.Error)
			continue
		}
		s := n.Stats
		get, put := s.Ops["get"], s.Ops["put"]
		gate := "-"
		if s.GateWait.Count > 0 {
			gate = fmt.Sprintf("%.0fµs", s.GateWait.P99Us)
		}
		lagS, lagL := "-", "-"
		if s.ShipLag.Samples > 0 {
			lagS = fmt.Sprintf("%.3f", s.ShipLag.EWMASeconds)
			lagL = fmt.Sprintf("%.1f", s.ShipLag.EWMALSNs)
		}
		fmt.Fprintf(w, "%-22s %-8s %3d %7.0f %9d %9d %9d %8s %7s %9s %12s %12s %6.1fM %s\n",
			n.Addr, s.Role, s.ShardID, s.UptimeSeconds,
			s.MVCCAppliedLSN, s.ShipCommitted, s.ShipAckedLSN,
			lagS, lagL, gate,
			fmt.Sprintf("%.0f/%.0f", get.P50Us, get.P99Us),
			fmt.Sprintf("%.0f/%.0f", put.P50Us, put.P99Us),
			s.PagerDirtyMB, residualCell(s.Obs))
	}
}

// residualCell renders the best residual p50 per class, e.g.
// "read=3% write=7%"; "-" when the node has no tracer.
func residualCell(o *obs.Summary) string {
	if o == nil || len(o.Residuals) == 0 {
		return "-"
	}
	best := bestResiduals(o.Residuals)
	classes := make([]string, 0, len(best))
	for c := range best {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	parts := make([]string, 0, len(classes))
	for _, c := range classes {
		parts = append(parts, fmt.Sprintf("%s=%.0f%%", c, 100*best[c]))
	}
	return strings.Join(parts, " ")
}

func emitJSON(rep report) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "kvtop: "+format+"\n", args...)
	os.Exit(1)
}

package main

// The registry: every workload and every metric the harness reports, with
// the bound an end-to-end metric may worsen by and, for each per-layer
// metric, the end-to-end metric it is predicted to move. BENCHMARK.json at
// the repo root is the driver-facing projection of this file; bench_test.go
// holds the two in agreement.

// Workload names.
const (
	wlGetHot   = "get-hot-c1"
	wlGetCold  = "get-cold-c16"
	wlMixed    = "mixed-durable-c16"
	wlEmbedded = "embedded-betree"
)

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	Name string
	Why  string // one line; copied into BENCHMARK.json
	// Server workloads: kvserve flags (beyond -addr) and the traffic shape.
	ServerArgs []string
	Items      int64 // keys preloaded == key population
	Clients    int
	PutPct     int // share of Puts in the Get/Put mix
}

// isServer reports whether the workload drives a spawned kvserve.
func (w workloadDef) isServer() bool { return w.Clients > 0 }

var workloads = []workloadDef{
	{
		Name: wlGetHot,
		Why:  "1 connection, all cached: the serial path's latency floor, no IO and no contention, so only the server layer works",
		ServerArgs: []string{"-tree", "btree", "-device", "pdam", "-p", "16",
			"-items", "100000"},
		Items: 100000, Clients: 1,
	},
	{
		Name: wlGetCold,
		Why:  "16 connections, data 5x the cache: read batches fill, pages miss, both cores are busy, so pager and PDAM slot packing show",
		ServerArgs: []string{"-tree", "btree", "-device", "pdam", "-p", "16",
			"-items", "200000", "-cache", "4194304"},
		Items: 200000, Clients: 16,
	},
	{
		Name: wlMixed,
		Why:  "16 connections, 50/50 Get/Put on a durable node with a full ship ring: the write queue, group commit, WAL and commit hooks beside reads",
		// 65,540 > engine.DefaultShipCap (65,536), so the ship ring is at
		// capacity from the first window op: the steady state of any durable
		// node that has committed that many records. Only the last 4 preloaded
		// records pay the at-capacity append (4-18 ms each), which keeps set-up
		// short and steady: at 66,000 keys it took 4.5-17 s from run to run on
		// this box, at 65,600 still 1.9-3.8 s.
		ServerArgs: []string{"-durable", "-items", "65540"},
		Items:      65540, Clients: 16, PutPct: 50,
	},
	{
		Name: wlEmbedded,
		Why:  "in-process B-epsilon-tree on the HDD model with WAL, checkpoints and crash recovery: the library path, where the server layers do no work",
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Metric groups.
const (
	groupE2E     = "e2e"    // what a user of the system sees
	groupWindow  = "window" // A: counter deltas over the measured window
	groupObs     = "obs"    // B: the program's own tracer, traced pass only
	groupLadder  = "ladder" // C: one layer's exported call in isolation
	betterLower  = "lower"
	betterHigher = "higher"
)

// metricDef declares one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Group  string
	// Bound is the share of the baseline median an end-to-end metric may
	// worsen by before -compare calls it a regression (AbsBound: an absolute
	// amount instead). Per-layer metrics have no bound.
	Bound    float64
	AbsBound float64
	// Gated end-to-end metrics are the ones BENCHMARK.json lists under
	// end_to_end. The driver requires of those that they are defined and
	// non-zero on every workload and that, on every workload, ten runs
	// spread by less than the bound (at most 0.25). The other end-to-end
	// metrics fail one of these on some workload — defined on part of the
	// workloads only, 0 at baseline, or too noisy at a 10 s window (see
	// bench/README.md) — so the driver records them with the per-layer
	// metrics, unbounded, and the harness's own -compare applies their
	// bounds, calling a metric unresolved where its spread is the wider.
	Gated bool
	// On lists the workloads the metric is defined on (nil: all four). For a
	// ladder rung it is the one workload whose traced run measures it.
	On []string
	// Moves is the prediction later changes are checked against: which
	// end-to-end metric, on which workload, this layer metric should move
	// ("none" when it serves no workload and is recorded for reference).
	Moves string
}

func (m metricDef) definedOn(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	onServers  = []string{wlGetHot, wlGetCold, wlMixed}
	onReads    = []string{wlGetCold, wlMixed, wlEmbedded}
	onWrites   = []string{wlMixed, wlEmbedded}
	onHot      = []string{wlGetHot}
	onCold     = []string{wlGetCold}
	onMixed    = []string{wlMixed}
	onEmbedded = []string{wlEmbedded}
)

var metrics = []metricDef{
	// ---- end to end ------------------------------------------------------
	{Name: "setup_s", Unit: "s", Better: betterLower, Group: groupE2E, Bound: 0.25, Gated: true},
	{Name: "throughput_ops_s", Unit: "ops/s", Better: betterHigher, Group: groupE2E, Bound: 0.25, Gated: true},
	{Name: "get_p50_us", Unit: "us", Better: betterLower, Group: groupE2E, Bound: 0.25, Gated: true},
	{Name: "get_p99_us", Unit: "us", Better: betterLower, Group: groupE2E, Bound: 0.30},
	{Name: "cpu_us_per_op", Unit: "us", Better: betterLower, Group: groupE2E, Bound: 0.20},
	{Name: "peak_rss_mb", Unit: "MiB", Better: betterLower, Group: groupE2E, Bound: 0.15},
	{Name: "put_p50_us", Unit: "us", Better: betterLower, Group: groupE2E, Bound: 0.20, On: onWrites},
	{Name: "put_p99_us", Unit: "us", Better: betterLower, Group: groupE2E, Bound: 0.30, On: onWrites},
	{Name: "scan_p50_us", Unit: "us", Better: betterLower, Group: groupE2E, Bound: 0.20, On: onEmbedded},
	{Name: "failed_frac", Unit: "ratio", Better: betterLower, Group: groupE2E, AbsBound: 0.001},
	{Name: "virt_us_per_op", Unit: "virt_us", Better: betterLower, Group: groupE2E, Bound: 0.10},
	{Name: "read_ios_per_get", Unit: "count", Better: betterLower, Group: groupE2E, Bound: 0.05, On: onReads},
	{Name: "write_amp", Unit: "ratio", Better: betterLower, Group: groupE2E, Bound: 0.05, On: onWrites},
	{Name: "space_amp", Unit: "ratio", Better: betterLower, Group: groupE2E, Bound: 0.05, On: onEmbedded},
	{Name: "recover_ms", Unit: "ms", Better: betterLower, Group: groupE2E, Bound: 0.25, On: onEmbedded},

	// ---- A: window counters ----------------------------------------------
	{Name: "server.read_batch_fill", Unit: "ratio", Better: betterHigher, Group: groupWindow, On: onServers,
		Moves: "virt_us_per_op on get-cold-c16; get_p50_us on get-hot-c1 (fill 1/16: every read waits out the grace timer)"},
	{Name: "server.write_batch_avg", Unit: "count", Better: betterHigher, Group: groupWindow, On: onMixed,
		Moves: "put_p50_us, throughput_ops_s on mixed-durable-c16"},
	{Name: "server.busy_frac", Unit: "ratio", Better: betterLower, Group: groupWindow, On: onServers,
		Moves: "failed_frac on get-hot-c1, get-cold-c16, mixed-durable-c16"},
	{Name: "server.get_service_p50_us", Unit: "us", Better: betterLower, Group: groupWindow, On: onServers,
		Moves: "get_p50_us on get-hot-c1, get-cold-c16, mixed-durable-c16 (client p50 - service p50 = socket + client share)"},
	{Name: "server.put_service_p50_us", Unit: "us", Better: betterLower, Group: groupWindow, On: onMixed,
		Moves: "put_p50_us on mixed-durable-c16"},
	{Name: "server.syscalls_per_op", Unit: "count", Better: betterLower, Group: groupWindow, On: onServers,
		Moves: "cpu_us_per_op, throughput_ops_s on get-cold-c16"},
	{Name: "engine.pager_hit_ratio", Unit: "ratio", Better: betterHigher, Group: groupWindow,
		Moves: "read_ios_per_get, virt_us_per_op on get-cold-c16 and embedded-betree; must stay 1 on get-hot-c1"},
	{Name: "engine.pager_evictions_per_op", Unit: "count", Better: betterLower, Group: groupWindow,
		Moves: "read_ios_per_get, virt_us_per_op on get-cold-c16 and embedded-betree; must stay 0 on get-hot-c1"},
	{Name: "engine.pager_writebacks_per_op", Unit: "count", Better: betterLower, Group: groupWindow,
		Moves: "write_amp, virt_us_per_op on mixed-durable-c16 and embedded-betree; must stay 0 on get-hot-c1"},
	{Name: "engine.checkpoints", Unit: "count", Better: betterLower, Group: groupWindow, On: onWrites,
		Moves: "write_amp, put_p99_us on embedded-betree (checkpoint stalls are invisible to a median)"},
	{Name: "engine.journal_bytes_per_user_byte", Unit: "ratio", Better: betterLower, Group: groupWindow, On: onWrites,
		Moves: "write_amp, put_p99_us on embedded-betree"},
	{Name: "engine.ship_buffered", Unit: "count", Better: betterLower, Group: groupWindow, On: onMixed,
		Moves: "none: validity guard, must equal the ring capacity on mixed-durable-c16 or the run is not in steady state"},
	{Name: "wal.records_per_commit", Unit: "count", Better: betterHigher, Group: groupWindow, On: onWrites,
		Moves: "put_p50_us, write_amp on mixed-durable-c16 and embedded-betree"},
	{Name: "wal.bytes_per_record", Unit: "count", Better: betterLower, Group: groupWindow, On: onWrites,
		Moves: "put_p50_us, write_amp on mixed-durable-c16 and embedded-betree"},
	{Name: "storage.read_bytes_per_op", Unit: "count", Better: betterLower, Group: groupWindow,
		Moves: "read_ios_per_get on get-cold-c16 and embedded-betree"},
	{Name: "storage.write_bytes_per_op", Unit: "count", Better: betterLower, Group: groupWindow,
		Moves: "write_amp on mixed-durable-c16 and embedded-betree"},
	{Name: "pdamdev.slot_util", Unit: "ratio", Better: betterHigher, Group: groupWindow, On: onCold,
		Moves: "virt_us_per_op on get-cold-c16"},
	{Name: "bench.client_cpu_us_per_op", Unit: "us", Better: betterLower, Group: groupWindow,
		Moves: "none: validity guard, generator cost per op; if it nears cpu_us_per_op the generator is the bottleneck"},
	{Name: "bench.samples", Unit: "count", Better: betterHigher, Group: groupWindow,
		Moves: "none: validity guard, latency samples behind the percentiles"},
	{Name: "bench.steal_pct", Unit: "%", Better: betterLower, Group: groupWindow,
		Moves: "none: validity guard, the share of this machine's CPU time the hypervisor gave to other guests during the window; above a few percent the run measured the neighbours"},

	// ---- B: the program's own tracer --------------------------------------
	{Name: "obs.tree_io_frac", Unit: "ratio", Better: betterLower, Group: groupObs,
		Moves: "virt_us_per_op on embedded-betree (the Bε-tree's own slot reads)"},
	{Name: "obs.pager_io_frac", Unit: "ratio", Better: betterLower, Group: groupObs,
		Moves: "virt_us_per_op on get-cold-c16 and embedded-betree"},
	{Name: "obs.wal_io_frac", Unit: "ratio", Better: betterLower, Group: groupObs,
		Moves: "virt_us_per_op on mixed-durable-c16 and embedded-betree"},
	{Name: "obs.checkpoint_io_frac", Unit: "ratio", Better: betterLower, Group: groupObs,
		Moves: "virt_us_per_op on mixed-durable-c16 and embedded-betree"},
	{Name: "obs.avg_concurrency", Unit: "count", Better: betterHigher, Group: groupObs,
		Moves: "virt_us_per_op on get-cold-c16 (tends to P when batches fill)"},
	{Name: "obs.residual_pdam_p50", Unit: "ratio", Better: betterLower, Group: groupObs,
		Moves: "none: the paper's model check (refined < DAM) riding along"},
	{Name: "obs.residual_dam_p50", Unit: "ratio", Better: betterLower, Group: groupObs,
		Moves: "none: the paper's model check (refined < DAM) riding along"},
	{Name: "obs.net_us_p50", Unit: "us", Better: betterLower, Group: groupObs, On: onServers,
		Moves: "get_p50_us on get-hot-c1"},
	{Name: "obs.overhead_pct", Unit: "%", Better: betterLower, Group: groupObs,
		Moves: "none: the tracing cost itself (throughput traced vs untraced)"},

	// ---- C: the ladder ----------------------------------------------------
	{Name: "kv.enc_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onHot,
		Moves: "cpu_us_per_op on get-hot-c1, get-cold-c16"},
	{Name: "kv.dec_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onHot,
		Moves: "cpu_us_per_op on get-hot-c1, get-cold-c16"},
	{Name: "kv.enc_allocs", Unit: "count", Better: betterLower, Group: groupLadder, On: onHot,
		Moves: "cpu_us_per_op on get-hot-c1, get-cold-c16"},
	{Name: "stats.observe_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onHot,
		Moves: "cpu_us_per_op on get-hot-c1, get-cold-c16"},
	{Name: "workload.next_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onHot,
		Moves: "none: generator cost, compare with bench.client_cpu_us_per_op"},

	{Name: "pdamdev.meter_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onCold,
		Moves: "cpu_us_per_op on get-cold-c16"},
	{Name: "mqssd.meter_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onCold,
		Moves: "none: no workload serves from mq; shows a shared stepper change"},
	{Name: "ssd.meter_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onCold,
		Moves: "none: no workload serves from ssd"},
	{Name: "hdd.meter_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onEmbedded,
		Moves: "throughput_ops_s on embedded-betree"},
	{Name: "storage.read4k_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onCold,
		Moves: "cpu_us_per_op on get-cold-c16"},
	{Name: "storage.write4k_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onCold,
		Moves: "setup_s on get-hot-c1, get-cold-c16, mixed-durable-c16"},

	{Name: "engine.pager_hit_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onCold,
		Moves: "throughput_ops_s on get-cold-c16"},
	{Name: "engine.pager_miss_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onCold,
		Moves: "throughput_ops_s on get-cold-c16"},
	{Name: "engine.pager_flush_us_per_page_1k", Unit: "us", Better: betterLower, Group: groupLadder, On: onCold,
		Moves: "setup_s on get-hot-c1, get-cold-c16, mixed-durable-c16; put_p99_us on embedded-betree"},
	{Name: "engine.pager_flush_us_per_page_8k", Unit: "us", Better: betterLower, Group: groupLadder, On: onCold,
		Moves: "setup_s on get-hot-c1, get-cold-c16, mixed-durable-c16; put_p99_us on embedded-betree (ratio to _1k exposes the O(dirty^2) victim scan)"},

	{Name: "wal.append_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onMixed,
		Moves: "put_p50_us, setup_s on mixed-durable-c16"},
	{Name: "wal.commit_us_b1", Unit: "us", Better: betterLower, Group: groupLadder, On: onMixed,
		Moves: "put_p50_us on mixed-durable-c16"},
	{Name: "wal.commit_us_b16", Unit: "us", Better: betterLower, Group: groupLadder, On: onMixed,
		Moves: "put_p50_us on mixed-durable-c16"},
	{Name: "wal.commit_us_b64", Unit: "us", Better: betterLower, Group: groupLadder, On: onMixed,
		Moves: "put_p50_us, setup_s on mixed-durable-c16"},

	{Name: "engine.apply_us_per_mut_b1", Unit: "us", Better: betterLower, Group: groupLadder, On: onMixed,
		Moves: "put_p50_us on mixed-durable-c16"},
	{Name: "engine.apply_us_per_mut_b16", Unit: "us", Better: betterLower, Group: groupLadder, On: onMixed,
		Moves: "throughput_ops_s, put_p50_us on mixed-durable-c16"},
	{Name: "engine.apply_us_per_mut_b64", Unit: "us", Better: betterLower, Group: groupLadder, On: onMixed,
		Moves: "throughput_ops_s, setup_s on mixed-durable-c16"},
	{Name: "engine.ship_append_ns_empty", Unit: "ns", Better: betterLower, Group: groupLadder, On: onMixed,
		Moves: "setup_s on mixed-durable-c16 (the first 65,536 records)"},
	{Name: "engine.ship_append_ns_full", Unit: "ns", Better: betterLower, Group: groupLadder, On: onMixed,
		Moves: "throughput_ops_s, put_p50_us, peak_rss_mb on mixed-durable-c16"},
	{Name: "engine.ship_since_us", Unit: "us", Better: betterLower, Group: groupLadder, On: onMixed,
		Moves: "none: no workload has a replica pulling"},
	{Name: "engine.checkpoint_ms", Unit: "ms", Better: betterLower, Group: groupLadder, On: onMixed,
		Moves: "put_p99_us on mixed-durable-c16 and embedded-betree"},
	{Name: "engine.recover_ms_per_krec", Unit: "ms", Better: betterLower, Group: groupLadder, On: onMixed,
		Moves: "recover_ms on embedded-betree"},
	{Name: "engine.snap_get_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onMixed,
		Moves: "none: no workload reads through snapshots"},

	{Name: "btree.get_hit_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onHot,
		Moves: "cpu_us_per_op on get-hot-c1, get-cold-c16, mixed-durable-c16"},
	{Name: "btree.get_allocs", Unit: "count", Better: betterLower, Group: groupLadder, On: onHot,
		Moves: "cpu_us_per_op on get-hot-c1, get-cold-c16, mixed-durable-c16"},
	{Name: "btree.get_miss_ios", Unit: "count", Better: betterLower, Group: groupLadder, On: onHot,
		Moves: "read_ios_per_get on get-cold-c16"},
	{Name: "btree.put_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onHot,
		Moves: "setup_s on get-hot-c1, get-cold-c16, mixed-durable-c16; cpu_us_per_op on mixed-durable-c16"},
	{Name: "btree.scan100_us", Unit: "us", Better: betterLower, Group: groupLadder, On: onHot,
		Moves: "none: no server workload scans"},
	{Name: "betree.get_hit_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onEmbedded,
		Moves: "get_p50_us on embedded-betree"},
	{Name: "betree.get_miss_ios", Unit: "count", Better: betterLower, Group: groupLadder, On: onEmbedded,
		Moves: "read_ios_per_get on embedded-betree"},
	{Name: "betree.put_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onEmbedded,
		Moves: "put_p50_us, setup_s on embedded-betree"},
	{Name: "betree.scan100_us", Unit: "us", Better: betterLower, Group: groupLadder, On: onEmbedded,
		Moves: "scan_p50_us on embedded-betree"},
	{Name: "betree.upsert_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onEmbedded,
		Moves: "throughput_ops_s on embedded-betree"},
	{Name: "lsm.get_hit_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onEmbedded,
		Moves: "none: serves no workload; shows a shared engine change on every dictionary"},
	{Name: "lsm.get_miss_ios", Unit: "count", Better: betterLower, Group: groupLadder, On: onEmbedded,
		Moves: "none: serves no workload"},
	{Name: "lsm.put_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onEmbedded,
		Moves: "none: serves no workload"},
	{Name: "lsm.scan100_us", Unit: "us", Better: betterLower, Group: groupLadder, On: onEmbedded,
		Moves: "none: serves no workload"},
	{Name: "cobtree.get_hit_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onEmbedded,
		Moves: "none: serves no workload"},
	{Name: "cobtree.get_miss_ios", Unit: "count", Better: betterLower, Group: groupLadder, On: onEmbedded,
		Moves: "none: serves no workload"},
	{Name: "cobtree.put_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onEmbedded,
		Moves: "none: serves no workload"},
	{Name: "cobtree.scan100_us", Unit: "us", Better: betterLower, Group: groupLadder, On: onEmbedded,
		Moves: "none: serves no workload"},
	{Name: "veb.contains_ns", Unit: "ns", Better: betterLower, Group: groupLadder, On: onEmbedded,
		Moves: "none: serves no workload"},

	{Name: "server.ping_rtt_us", Unit: "us", Better: betterLower, Group: groupLadder, On: onHot,
		Moves: "get_p50_us on get-hot-c1 (socket + frame share of the serial path)"},
	{Name: "server.get_rtt_us", Unit: "us", Better: betterLower, Group: groupLadder, On: onHot,
		Moves: "get_p50_us on get-hot-c1"},
	{Name: "server.get_rtt_batch1_us", Unit: "us", Better: betterLower, Group: groupLadder, On: onHot,
		Moves: "get_p50_us on get-hot-c1 (the floor once no grace timer is waited out)"},
	{Name: "server.sched_wait_us", Unit: "us", Better: betterLower, Group: groupLadder, On: onHot,
		Moves: "get_p50_us on get-hot-c1 (the only rung that can move it today)"},
	{Name: "server.client_get_allocs", Unit: "count", Better: betterLower, Group: groupLadder, On: onHot,
		Moves: "none: client-side allocations, compare with bench.client_cpu_us_per_op on get-hot-c1, get-cold-c16, mixed-durable-c16"},
	{Name: "server.put_rtt_plain_us", Unit: "us", Better: betterLower, Group: groupLadder, On: onMixed,
		Moves: "put_p50_us on mixed-durable-c16"},
	{Name: "server.put_rtt_durable_us", Unit: "us", Better: betterLower, Group: groupLadder, On: onMixed,
		Moves: "put_p50_us on mixed-durable-c16"},

	{Name: "cluster.router_overhead_us", Unit: "us", Better: betterLower, Group: groupLadder, On: onMixed,
		Moves: "none: the parked topologies keep a number"},
	{Name: "cluster.syncship_put_p50_us", Unit: "us", Better: betterLower, Group: groupLadder, On: onMixed,
		Moves: "none: the parked topologies keep a number"},
	{Name: "cluster.ship_lag_ewma_ms", Unit: "ms", Better: betterLower, Group: groupLadder, On: onMixed,
		Moves: "none: the parked topologies keep a number"},
}

func findMetric(name string) (metricDef, bool) {
	for _, m := range metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

func metricsWhere(keep func(metricDef) bool) []metricDef {
	var out []metricDef
	for _, m := range metrics {
		if keep(m) {
			out = append(out, m)
		}
	}
	return out
}

// gatedMetrics are the end-to-end metrics the driver bounds (BENCHMARK.json
// end_to_end); layerMetrics is everything else (BENCHMARK.json per_layer);
// e2eMetrics are all fifteen end-to-end metrics, gated or not: what -repeat
// and -compare judge.
func gatedMetrics() []metricDef { return metricsWhere(func(m metricDef) bool { return m.Gated }) }
func layerMetrics() []metricDef { return metricsWhere(func(m metricDef) bool { return !m.Gated }) }
func e2eMetrics() []metricDef {
	return metricsWhere(func(m metricDef) bool { return m.Group == groupE2E })
}

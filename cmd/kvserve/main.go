// Command kvserve boots the PDAM-aware KV service: a tree on a simulated
// device behind the binary TCP protocol, with the batch read scheduler,
// group-commit writer, and live metrics of internal/server.
//
// It is flag parsing around internal/node: the flags become a node.Spec,
// node.Start boots it (device, engine, durability, tree, preload, server,
// shipper, in that order), and the rest of main prints the startup lines,
// serves the optional metrics listener and waits for a signal.
//
// Usage:
//
//	kvserve [-addr HOST:PORT] [-metrics HOST:PORT] [-device pdam|ssd|mq]
//	        [-tree btree|betree|lsm] [-items N] [-durable] [-batch N] ...
//
// The device is a timing model, so IO cost accrues on a shared virtual
// clock while connections are real TCP; the /stats document reports both
// (vclock_ns vs wall-clock op latencies). -batch 1 degrades the read
// scheduler to the DAM-style one-IO-at-a-time baseline of experiment E20.
//
// Cluster membership: -shard/-shards place this node's keyspace slice in
// internal/cluster's consistent-hash ring, -replica-of turns the node into
// a warm replica tailing a primary's WAL ship stream, and -sync-ship makes
// a primary hold each write's ack until a replica confirms it. Both roles
// require -durable (shipping is the WAL commit stream).
//
// On startup it prints "listening on HOST:PORT" (the CI smoke test greps
// for it); SIGINT or SIGTERM shuts down cleanly and prints a final stats
// summary.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"iomodels/internal/cluster"
	"iomodels/internal/engine"
	"iomodels/internal/mqssd"
	"iomodels/internal/node"
	"iomodels/internal/obs"
	"iomodels/internal/server"
	"iomodels/internal/sim"
	"iomodels/internal/storage"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "TCP listen address (:0 picks a free port)")
	metricsAddr := flag.String("metrics", "", "HTTP listen address for /stats and /metrics (empty: disabled)")
	device := flag.String("device", "pdam", "device model: pdam, ssd, or mq")
	p := flag.Int("p", 16, "PDAM parallelism P (IO slots per step)")
	block := flag.Int64("block", 4<<10, "PDAM block bytes B")
	step := flag.Duration("step", time.Millisecond, "PDAM step length (virtual time)")
	capacity := flag.Int64("capacity", 4<<30, "pdam device capacity bytes")
	queues := flag.Int("queues", 0, "mq device: read queue pairs (0: mq default)")
	qslots := flag.Int("qslots", 0, "mq device: per-queue IOs per step (0: mq default)")
	qdepth := flag.Int("qdepth", 0, "mq device: per-queue outstanding cap (0: per-queue slots)")
	beta := flag.Float64("beta", 0.125, "mq device: cross-queue interference β")
	writeQueue := flag.Bool("wq", true, "mq device: dedicate a write queue pair")
	treeKind := flag.String("tree", "btree", "dictionary: btree, betree, or lsm")
	nodeBytes := flag.Int("node", 4<<10, "tree node bytes (btree/betree)")
	cache := flag.Int64("cache", 64<<20, "engine cache bytes")
	items := flag.Int64("items", 0, "preload this many keys before serving")
	durable := flag.Bool("durable", false, "enable the WAL: group commit and crash recovery")
	batch := flag.Int("batch", 0, "read slots per lane (0: ask the device for P; 1: DAM-style)")
	lanes := flag.Int("lanes", 0, "read lanes (0: ask the device for its queue topology)")
	readq := flag.Int("readq", 0, "read admission bound (0: 4x batch)")
	writeq := flag.Int("writeq", 0, "write queue bound (0: default 1024)")
	writeBatch := flag.Int("writebatch", 0, "mutations per group commit (0: default 64)")
	traceCap := flag.Int("trace", 0, "retain an IO trace of this many records (0: off)")
	obsOn := flag.Bool("obs", false, "attach the span tracer: per-layer IO attribution and live model residuals on /stats and /metrics")
	obsSample := flag.Int("obs-sample", 16, "trace 1 in N operations (with -obs)")
	chromeOut := flag.String("chrome", "", "write a Chrome trace_event JSON of retained spans here at shutdown (implies -obs)")
	spansOut := flag.String("spans-out", "", "write the wall-stamped span dump (JSON) here at shutdown for iotrace -merge (implies -obs)")
	slowOps := flag.Duration("slow-ops", 0, "log one structured line per op slower than this wall-clock threshold (0: off)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the -metrics listener")
	shard := flag.Int("shard", 0, "this node's shard index in the cluster ring")
	shards := flag.Int("shards", 1, "total shard count in the cluster ring")
	replicaOf := flag.String("replica-of", "", "primary address to tail as a warm replica (requires -durable)")
	syncShip := flag.Bool("sync-ship", false, "ack writes only after a replica confirms them (requires -durable)")
	shipBuffer := flag.Int("ship-buffer", 0, "ship ring capacity in records (0: engine default)")
	flag.Parse()

	isReplica := *replicaOf != ""
	inCluster := isReplica || *shards > 1 || *syncShip
	if inCluster && !*durable {
		fatalf("cluster roles ship the WAL commit stream: -replica-of/-shards/-sync-ship require -durable")
	}
	if *shard < 0 || *shard >= *shards {
		fatalf("-shard %d out of range for -shards %d", *shard, *shards)
	}
	role := server.RoleSolo
	switch {
	case isReplica:
		role = server.RoleReplica
	case inCluster:
		role = server.RolePrimary
	}

	mcfg := mqssd.Config{
		Queues: *queues, PerQueueP: *qslots, QueueDepth: *qdepth, Interference: *beta,
		WriteQueue: *writeQueue, BlockBytes: *block, StepTime: sim.Time(*step),
	}
	dev, err := node.NewDevice(*device, *p, mcfg, *capacity)
	if err != nil {
		fatalf("%v", err)
	}

	spec := node.Spec{
		Device:     dev,
		CacheBytes: *cache,
		Tree:       *treeKind,
		NodeBytes:  *nodeBytes,
		ShipCap:    *shipBuffer,
		Items:      *items,
		Server: server.Config{
			Addr:            *addr,
			BatchIOs:        *batch,
			ReadLanes:       *lanes,
			ReadQueue:       *readq,
			WriteQueue:      *writeq,
			WriteBatch:      *writeBatch,
			ShardID:         *shard,
			Shards:          *shards,
			Role:            role,
			SyncShip:        *syncShip,
			SlowOpThreshold: *slowOps,
		},
		Shipper: cluster.ShipperConfig{
			Primary: *replicaOf,
			Logf: func(format string, args ...interface{}) {
				fmt.Printf("kvserve: "+format+"\n", args...)
			},
		},
	}
	if *durable {
		spec.Durability = &engine.DurabilityConfig{}
	}
	if *traceCap > 0 {
		spec.Server.Trace = storage.NewBoundedTrace(*traceCap)
	}
	var tracer *obs.Tracer
	if *obsOn || *chromeOut != "" || *spansOut != "" {
		// Wall stamps and a per-process wire tag make the spans mergeable
		// across processes (iotrace -merge): wall time is the only timeline a
		// client, a primary, and a replica share, and the tag keeps their
		// wire span ids from colliding. The pid term covers nodes launched
		// with identical -addr/-shard flags (e.g. :0 picking free ports).
		// The node calibrates the cost models once the preload has run.
		tracer = obs.NewTracer(obs.Config{
			SampleEvery: *obsSample,
			WallNow:     func() int64 { return time.Now().UnixNano() },
			WireTag:     wireTag(*addr, *shard),
		})
		spec.Server.Tracer = tracer
	}

	n, err := node.Start(spec)
	if err != nil {
		fatalf("%v", err)
	}
	srv := n.Srv
	if *items > 0 {
		fmt.Printf("kvserve: preloaded %d items (%s of virtual IO)\n", *items, n.Eng.Clock().Now())
	}
	if tracer != nil {
		if models := tracer.Models(); models != nil {
			fmt.Printf("kvserve: calibrated %s: affine s=%.3gs t=%.3gs/B, pdam P=%d step=%.3gs\n",
				models.Device, models.Affine.Setup, models.Affine.PerByte,
				models.PDAM.P, models.PDAM.StepSeconds)
		} else {
			fmt.Printf("kvserve: device %s has no calibration; tracing without cost models\n", dev.Name())
		}
	}
	cfg := srv.Config()
	fmt.Printf("kvserve: %s on %s, lanes=%d batch=%d durable=%v\n",
		*treeKind, dev.Name(), cfg.ReadLanes, cfg.BatchIOs, *durable)
	if role != server.RoleSolo {
		fmt.Printf("kvserve: shard %d/%d role=%s replica-of=%q sync-ship=%v\n",
			*shard, *shards, role, *replicaOf, *syncShip)
	}
	fmt.Printf("kvserve: listening on %s\n", n.Addr)

	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatalf("metrics listen: %v", err)
		}
		handler := srv.MetricsHandler()
		if *pprofOn {
			// The metrics handler is a bare ServeMux, not http.DefaultServeMux,
			// so pprof's handlers are registered explicitly.
			mux := http.NewServeMux()
			mux.Handle("/", handler)
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			handler = mux
			fmt.Printf("kvserve: pprof on http://%s/debug/pprof/\n", mln.Addr())
		}
		fmt.Printf("kvserve: metrics on http://%s/stats and /metrics\n", mln.Addr())
		go func() { _ = http.Serve(mln, handler) }()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	<-sigs
	fmt.Println("kvserve: shutting down")
	if err := n.Close(); err != nil {
		fatalf("close: %v", err)
	}
	snap := srv.Snapshot()
	fmt.Printf("kvserve: served %d conns, %d gets, %d puts, %d read batches, %d group commits, %s virtual\n",
		snap.ConnsTotal, snap.Ops["get"].Count, snap.Ops["put"].Count,
		snap.ReadBatches, snap.WriteBatches, sim.Time(snap.VClock))
	if tracer != nil {
		sum := tracer.Summary()
		fmt.Print(obs.RenderBreakdown(sum))
		if sum.Models != nil {
			fmt.Print(obs.RenderResiduals(sum))
		}
	}
	if *chromeOut != "" {
		writeFile("chrome trace", *chromeOut, tracer.WriteChromeTrace)
		fmt.Printf("kvserve: wrote Chrome trace to %s (open in chrome://tracing or Perfetto)\n", *chromeOut)
	}
	if *spansOut != "" {
		writeFile("spans", *spansOut, tracer.WriteSpansJSON)
		fmt.Printf("kvserve: wrote span dump to %s (merge with iotrace -merge)\n", *spansOut)
	}
}

// writeFile creates path and fills it with write, or exits naming what.
func writeFile(what, path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		if err = write(f); err == nil {
			err = f.Close()
		}
	}
	if err != nil {
		fatalf("%s: %v", what, err)
	}
}

// wireTag derives this process's span-id tag from its identity flags plus
// the pid, so two nodes of the same cluster never mint colliding wire ids
// even when launched with identical flags.
func wireTag(addr string, shard int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d#%d", addr, shard, os.Getpid())
	return h.Sum64()
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "kvserve: "+format+"\n", args...)
	os.Exit(1)
}

// Command iotrace runs a small dictionary workload with end-to-end IO-path
// tracing and prints three views of it:
//
//   - the raw device trace of the load phase (IO counts, bytes,
//     sequentiality, latency) — the affine model's s and t visible as the
//     latency gap between random and sequential rows;
//   - a flamegraph-style per-layer breakdown of the query phase's device
//     time (tree / pager / WAL / checkpoint), from the span tracer;
//   - the live model-residual table: for every traced query, the cost the
//     DAM, affine, and PDAM models predict from the device's calibrated
//     parameters vs. the measured virtual-time cost — the paper's §4
//     prediction-error experiments as a one-command report.
//
// Usage:
//
//	iotrace [-tree b|be|lsm] [-device hdd|ssd|pdam|mq] [-items N] [-ops N]
//	        [-clients K] [-node BYTES] [-cache BYTES] [-chrome FILE] [-assert]
//	iotrace -merge [-o FILE] name=spans.json [name=spans.json ...]
//
// -clients runs the query phase as K concurrent simulated processes, so on
// a parallel device the PDAM's step-sharing is visible (and the DAM's
// serial prediction measurably wrong). -assert exits non-zero unless the
// refined model beats the DAM on read residuals (the CI smoke check).
//
// -merge is a different mode entirely: it folds several processes'
// wall-stamped span dumps (kvserve -spans-out or its /spans endpoint,
// loadgen -spans-out) into one Chrome trace_event JSON, one pid per dump,
// with flow arrows along every cross-process span link — a traced cluster
// write renders as one causally-connected timeline from the client span
// through the primary's server and commit spans to the replica's apply.
// Each argument is name=file (the name labels the process row; a bare file
// uses its basename).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"iomodels/internal/engine"
	"iomodels/internal/hdd"
	"iomodels/internal/node"
	"iomodels/internal/obs"
	"iomodels/internal/sim"
	"iomodels/internal/stats"
	"iomodels/internal/storage"
	"iomodels/internal/workload"
)

func main() {
	treeKind := flag.String("tree", "be", "structure: b, be, or lsm")
	device := flag.String("device", "hdd", "device model: hdd, ssd, pdam, or mq")
	items := flag.Int64("items", 100_000, "pairs to load")
	nodeBytes := flag.Int("node", 256<<10, "node size (trees)")
	cache := flag.Int64("cache", 4<<20, "engine cache bytes")
	ops := flag.Int("ops", 200, "measured queries after the load")
	clients := flag.Int("clients", 1, "concurrent query clients (sim processes)")
	chromeOut := flag.String("chrome", "", "write a Chrome trace_event JSON of the query phase here")
	assert := flag.Bool("assert", false, "exit 1 unless the refined model beats the DAM on read residuals")
	merge := flag.Bool("merge", false, "merge span dumps (name=file args) into one cross-process Chrome trace and exit")
	mergeOut := flag.String("o", "", "merged Chrome trace output file (default stdout; with -merge)")
	flag.Parse()

	if *merge {
		if err := runMerge(*mergeOut, flag.Args()); err != nil {
			fatalf("merge: %v", err)
		}
		return
	}

	var dev storage.Device
	if *device == "hdd" {
		// Deterministic rotation: the calibrated models predict expected
		// cost, so the measured side uses the mean-rotation disk.
		dev = hdd.NewDeterministic(hdd.DefaultProfile())
	} else {
		// The serving devices as kvserve builds them, at its default P.
		var err error
		if dev, err = node.NewDevice(*device, 16); err != nil {
			fatalf("unknown device %q (want hdd, ssd, pdam, or mq)", *device)
		}
	}

	eng := engine.New(engine.Config{CacheBytes: *cache}, dev, sim.New())
	spec := workload.DefaultSpec()
	tree, err := node.NewTree(*treeKind, *nodeBytes, spec, eng)
	if err != nil {
		fatalf("%v", err)
	}

	// Load phase: raw device trace, as before.
	tr := &storage.Trace{}
	eng.SetTrace(tr)
	workload.Load(tree, spec, *items)
	tree.Flush()
	fmt.Printf("=== load phase: %d pairs on %s ===\n", *items, eng.Device().Name())
	report(tr)
	eng.SetTrace(nil)

	// Query phase: span tracing with the model-cost accountant, calibrated
	// against a fresh device built from this device's profile. The sweep is
	// confined to the engine's allocated region: the hdd's seek cost grows
	// with distance, so a whole-device sweep would fit an s the workload's
	// short seeks never pay.
	var cfg obs.Config // every query traced
	models, ok := obs.ModelsFor(dev, obs.CalibrationConfig{
		BlockBytes:  int64(*nodeBytes),
		RegionBytes: eng.HighWater(),
	})
	if ok {
		cfg.Models = &models
	}
	tracer := obs.NewTracer(cfg)
	eng.SetTracer(tracer)

	perClient := *ops / *clients
	if perClient < 1 {
		perClient = 1
	}
	for i := 0; i < *clients; i++ {
		i := i
		eng.Clock().Go(func(pr *sim.Proc) {
			c := eng.Process(pr)
			sess := tree.Session(c)
			for j := 0; j < perClient; j++ {
				id := uint64((i*perClient+j)*2654435761) % uint64(*items)
				sp := c.StartSpan("get")
				sess.Get(spec.Key(id))
				c.FinishSpan(sp)
			}
		})
	}
	eng.Clock().Run()
	eng.SetTracer(nil)

	fmt.Printf("=== query phase: %d random gets, %d clients ===\n", *clients*perClient, *clients)
	sum := tracer.Summary()
	fmt.Print(obs.RenderBreakdown(sum))
	fmt.Print(obs.RenderResiduals(sum))

	if *chromeOut != "" {
		f, err := os.Create(*chromeOut)
		must(err)
		must(tracer.WriteChromeTrace(f))
		must(f.Close())
		fmt.Printf("wrote Chrome trace to %s (open in chrome://tracing or Perfetto)\n", *chromeOut)
	}

	if *assert {
		// The refined model for the device family: affine on the serial hdd
		// (§2), PDAM on parallel devices (§8), the multi-queue model when
		// the device exposes queue structure (E23).
		refined := obs.ModelPDAM
		if sum.Models != nil {
			switch {
			case sum.Models.Serial:
				refined = obs.ModelAffine
			case sum.Models.MQ.Queues > 1:
				refined = obs.ModelMQ
			}
		}
		ref, ok1 := sum.Residual(refined, "read")
		dam, ok2 := sum.Residual(obs.ModelDAM, "read")
		if !ok1 || !ok2 {
			fatalf("assert: no read residuals recorded (models missing or no IO traced)")
		}
		if ref.P50 >= dam.P50 {
			fatalf("assert: %s p50 residual %.1f%% not below dam %.1f%%",
				refined, 100*ref.P50, 100*dam.P50)
		}
		fmt.Printf("assert ok: %s p50 residual %.1f%% < dam %.1f%%\n",
			refined, 100*ref.P50, 100*dam.P50)
	}
}

// runMerge reads each name=file span dump ([]obs.SpanJSON, the shape of
// kvserve's /spans and the -spans-out files) and writes one merged Chrome
// trace. The dumps keep their argument order, so the process rows are
// stable no matter which file's spans are oldest.
func runMerge(out string, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("no span dumps (want name=file arguments)")
	}
	var procs []obs.ProcSpans
	for _, arg := range args {
		name, path := arg, arg
		if i := strings.IndexByte(arg, '='); i >= 0 {
			name, path = arg[:i], arg[i+1:]
		} else {
			name = strings.TrimSuffix(filepath.Base(path), ".json")
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var spans []obs.SpanJSON
		if err := json.Unmarshal(data, &spans); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		procs = append(procs, obs.ProcSpans{Name: name, Spans: spans})
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := obs.WriteMergedChromeTrace(w, procs); err != nil {
		return err
	}
	if out != "" {
		total := 0
		for _, p := range procs {
			total += len(p.Spans)
		}
		fmt.Printf("merged %d spans from %d processes into %s\n", total, len(procs), out)
	}
	return nil
}

func report(tr *storage.Trace) {
	recs := tr.Snapshot()
	if len(recs) == 0 {
		fmt.Println("  (no IO)")
		return
	}
	type agg struct {
		n          int
		bytes      int64
		latencies  []float64
		sequential int
	}
	var byOp [2]agg
	var lastEnd int64 = -1
	for _, r := range recs {
		a := &byOp[int(r.Op)]
		a.n++
		a.bytes += r.Size
		a.latencies = append(a.latencies, r.Latency.Milliseconds())
		if r.Off == lastEnd {
			a.sequential++
		}
		lastEnd = r.Off + r.Size
	}
	for op := storage.Read; op <= storage.Write; op++ {
		a := byOp[int(op)]
		if a.n == 0 {
			continue
		}
		s := stats.Summarize(a.latencies)
		fmt.Printf("  %-6s %6d IOs  %9.1f MiB  %4.0f%% sequential\n",
			op, a.n, float64(a.bytes)/(1<<20), 100*float64(a.sequential)/float64(a.n))
		fmt.Printf("         latency ms: mean %.2f  median %.2f  p95 %.2f  max %.2f\n",
			s.Mean, s.Median, s.P95, s.Max)
		sizes := map[int64]int{}
		for _, r := range recs {
			if r.Op == op {
				sizes[r.Size]++
			}
		}
		bySize := make([]int64, 0, len(sizes))
		for sz := range sizes {
			bySize = append(bySize, sz)
		}
		slices.Sort(bySize)
		fmt.Printf("         IO sizes:")
		for _, sz := range bySize {
			fmt.Printf("  %dx%s", sizes[sz], human(sz))
		}
		fmt.Println()
	}
}

func human(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "iotrace: "+format+"\n", args...)
	os.Exit(1)
}

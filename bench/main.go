// Command bench is the repository's benchmark: four workloads, fifteen
// end-to-end metrics and a per-layer ladder, declared to the acceptance
// driver in BENCHMARK.json at the repo root. It changes no program code:
// end-to-end runs drive the shipped cmd/kvserve binary through the public
// server.Client (or the iomodels facade in-process), and per-layer numbers
// come from outside — counter deltas, /proc, kvserve's own -obs tracer, and
// testing.Benchmark around each layer's exported functions.
//
// Usage (from the repo root; see bench/README.md):
//
//	go run ./bench                          all workloads, end-to-end pass
//	go run ./bench -trace 1                 adds the traced pass and the ladder
//	go run ./bench -workload get-hot-c1     one workload, driver JSON as last line
//	go run ./bench -repeat 10               medians, quartiles, spread vs bound
//	go run ./bench -compare bench/baselines/BENCH_11.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one window
// measures (and what the embedded workload's fixed op count is sized for).
const defaultSeconds = 10

// A quiet window on a shared box loses 0.1-0.5 % of its CPU time to steal.
// At 3-5 % get-hot-c1's p99 doubles and throughput drops 5-10 %; at 25 %
// embedded-betree ran at half speed. Above stealLimitPct a pass is repeated,
// at most stealAttempts times in all (the driver allows a run 180 s).
const (
	stealLimitPct = 2.0
	stealAttempts = 3
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	repeat   int
	compare  string
	out      string
	child    bool
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	var pass string
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload and print the driver's JSON line last ("+strings.Join(workloadNames(), ", ")+"); empty: all four")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end pass, tracing off; 1: also the traced pass and the ladder (per-layer metrics)")
	fs.StringVar(&pass, "pass", "", "alias: e2e = -trace 0, traced = -trace 1")
	fs.IntVar(&o.repeat, "repeat", 1, "run each workload N times (seed, seed+1, ...) and report median, quartiles and spread against each bound")
	fs.StringVar(&o.compare, "compare", "", "baseline document to compare against; exits non-zero on a regression")
	fs.StringVar(&o.out, "out", "", "write the result document here instead of bench/out/result.json")
	fs.BoolVar(&o.child, "embedded-child", false, "internal: run the embedded workload in this process and print its result")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("bench: unexpected argument %q", fs.Arg(0))
	}
	switch pass {
	case "":
	case "e2e":
		trace = 0
	case "traced":
		trace = 1
	default:
		return o, fmt.Errorf("bench: -pass %q (want e2e or traced)", pass)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("bench: -trace %d (want 0 or 1)", trace)
	}
	o.traced = trace == 1
	if o.seconds < 1 || o.seconds > 600 {
		return o, fmt.Errorf("bench: -seconds %d out of range", o.seconds)
	}
	if o.repeat < 1 {
		return o, fmt.Errorf("bench: -repeat %d out of range", o.repeat)
	}
	if o.workload != "" {
		if _, ok := findWorkload(o.workload); !ok {
			return o, fmt.Errorf("bench: unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
		}
	}
	return o, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func main() {
	// Children must not outlive the harness: reap them on a signal too.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-sigs
		killAllChildren()
		os.Exit(130)
	}()

	err := run(os.Args[1:])
	killAllChildren()
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.child {
		return embeddedChildMain(o)
	}
	env, err := newEnv()
	if err != nil {
		return err
	}

	selected := workloads
	if o.workload != "" {
		w, _ := findWorkload(o.workload)
		selected = []workloadDef{w}
	}
	doc := newDocument(o)
	for _, wl := range selected {
		for i := 0; i < o.repeat; i++ {
			seed := o.seed + uint64(i)
			passes := "end-to-end pass"
			if o.traced {
				passes += " + traced pass + ladder"
			}
			fmt.Printf("== %s  seed %d  %d s  %s\n", wl.Name, seed, o.seconds, passes)
			res, err := runWorkload(env, wl, seed, o.seconds, o.traced)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.Name, err)
			}
			doc.add(res)
			printRun(os.Stdout, res)
		}
	}
	if o.repeat > 1 {
		doc.printSpreads(os.Stdout)
	}

	path := o.out
	if path == "" {
		path = env.out + "/result.json"
	}
	if err := doc.write(path); err != nil {
		return err
	}
	fmt.Printf("result document: %s\n", path)

	var cmpErr error
	if o.compare != "" {
		base, err := readDocument(o.compare)
		if err != nil {
			return err
		}
		cmpErr = compare(os.Stdout, base, doc)
	}

	// The driver reads the last line of standard output.
	if o.workload != "" && o.repeat == 1 {
		line, err := doc.Workloads[o.workload].Runs[0].driverLine()
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	if cmpErr != nil {
		return cmpErr
	}
	for _, name := range doc.orderedWorkloads() {
		for _, r := range doc.Workloads[name].Runs {
			if !r.Correct {
				return fmt.Errorf("bench: %s (seed %d) failed its correctness check", name, r.Seed)
			}
		}
	}
	return nil
}

// runWorkload runs one workload once: the end-to-end pass, and with traced
// also the traced pass and the workload's share of the ladder. The
// end-to-end metrics always come from the untraced pass.
func runWorkload(env *benchEnv, wl workloadDef, seed uint64, seconds int, traced bool) (*runResult, error) {
	pass := serverPass
	if !wl.isServer() {
		pass = embeddedPass
	}
	// A pass whose window lost CPU time to other guests of the hypervisor
	// measured the neighbours: measure again, and keep the quietest attempt.
	var res *runResult
	for attempt := 1; ; attempt++ {
		r, err := pass(env, wl, seed, seconds, false)
		if err != nil {
			return nil, err
		}
		if res == nil || r.Values["bench.steal_pct"] < res.Values["bench.steal_pct"] {
			res = r
		}
		stolen := r.Values["bench.steal_pct"]
		if stolen <= stealLimitPct || attempt == stealAttempts {
			break
		}
		fmt.Printf("  attempt %d: %.1f %% of the window's CPU time was stolen by other guests; measuring again\n", attempt, stolen)
	}
	if traced {
		tr, err := pass(env, wl, seed, seconds, true)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		res.Traced = true
		if !tr.Correct {
			res.Correct = false
		}
		untraced, tracedTput := res.Values["throughput_ops_s"], tr.Values["throughput_ops_s"]
		res.set("obs.overhead_pct", 100*(untraced-tracedTput)/untraced)
		if !wl.isServer() {
			tagExact(res, tr)
		}
		for _, m := range metrics {
			if m.Group != groupObs {
				continue
			}
			if v, ok := tr.Values[m.Name]; ok {
				res.set(m.Name, v)
			} else if why, ok := tr.Nulls[m.Name]; ok {
				res.null(m.Name, why)
			}
		}
		if err := runLadder(env, wl.Name, res); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	res.fillNulls()
	return res, nil
}

package main

// Server workloads: a closed loop of clients against a spawned kvserve.
// Every caller of kvserve waits for its reply, so each client is one
// goroutine with its own server.Client that sends its next request only
// after the previous one completed.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"iomodels/internal/server"
	"iomodels/internal/stats"
	"iomodels/internal/workload"
)

const (
	// warmup runs the clients before the window opens: connections are
	// established, the cache holds its steady-state working set (the cold
	// workload's 4 MiB cache turns over in well under 100 ms) and both
	// processes' heaps have grown to their working size — the durable server's
	// takes the longest, about a second of at-capacity ship-ring appends.
	warmup = 2 * time.Second
	// Set-up (exec -> "listening on") is repeated, and its median reported,
	// until setupSamples were taken or setupBudget was spent on it: the short
	// set-ups are the noisy ones and cost little to repeat.
	setupSamples = 5
	setupBudget  = 6 * time.Second
)

// Busy backoff, as in cmd/loadgen: a refused request is retried after a
// capped, jittered exponential delay, never in a hot spin.
const (
	busyBase = 200 * time.Microsecond
	busyMax  = 50 * time.Millisecond
)

// benchEnv is where the harness builds and logs.
type benchEnv struct {
	root    string // checkout root
	out     string // <root>/bench/out
	kvserve string // built binary, "" until first needed
}

func newEnv() (*benchEnv, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	out, err := outDir(root)
	if err != nil {
		return nil, err
	}
	return &benchEnv{root: root, out: out}, nil
}

// kvserveBin builds cmd/kvserve on first use.
func (e *benchEnv) kvserveBin() (string, error) {
	if e.kvserve == "" {
		bin, err := buildKVServe(e.root, e.out)
		if err != nil {
			return "", err
		}
		e.kvserve = bin
	}
	return e.kvserve, nil
}

// startKVServe starts one kvserve on a free port and waits until it
// listens. The caller stops it.
func (e *benchEnv) startKVServe(name string, args ...string) (c *child, addr string, setup time.Duration, err error) {
	bin, err := e.kvserveBin()
	if err != nil {
		return nil, "", 0, err
	}
	c, err = startChild(e.out, name, listenMarker, bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	if err != nil {
		return nil, "", 0, err
	}
	addr, setup, err = c.waitListening()
	if err != nil {
		c.kill()
		return nil, "", 0, err
	}
	return c, addr, setup, nil
}

// statsDoc is the part of kvserve's Stats JSON document the harness reads.
// The JSON keys are pinned surface (bench/README.md).
type statsDoc struct {
	BatchIOs int   `json:"batch_ios"`
	Busy     int64 `json:"busy"`
	Ops      map[string]struct {
		Count int64   `json:"count"`
		P50Us float64 `json:"p50_us"`
	} `json:"ops"`
	ReadBatches     int64   `json:"read_batches"`
	WriteBatches    int64   `json:"write_batches"`
	WriteOps        int64   `json:"write_ops"`
	VClockNs        int64   `json:"vclock_ns"`
	PagerHits       int64   `json:"pager_hits"`
	PagerMisses     int64   `json:"pager_misses"`
	PagerEvictions  int64   `json:"pager_evictions"`
	PagerWritebacks int64   `json:"pager_writebacks"`
	DevReads        int64   `json:"dev_reads"`
	DevReadMB       float64 `json:"dev_read_mb"`
	DevWriteMB      float64 `json:"dev_write_mb"`
	WALRecords      int64   `json:"wal_records"`
	WALCommits      int64   `json:"wal_commits"`
	WALBytes        int64   `json:"wal_bytes"`
	Checkpoints     int64   `json:"checkpoints"`
	JournalMB       float64 `json:"journal_mb"`
	ShipBuffered    int64   `json:"ship_buffered"`
	ShipLag         struct {
		EWMASeconds float64 `json:"ewma_seconds"`
	} `json:"ship_lag"`
	Obs *struct {
		AvgConcurrency float64 `json:"avg_concurrency"`
		Layers         []struct {
			Layer       string  `json:"layer"`
			TimeSeconds float64 `json:"time_seconds"`
		} `json:"layers"`
		Residuals []struct {
			Model string  `json:"model"`
			Class string  `json:"class"`
			P50   float64 `json:"p50"`
		} `json:"residuals"`
	} `json:"obs"`
}

func fetchStats(cl *server.Client) (statsDoc, error) {
	var doc statsDoc
	js, err := cl.Stats()
	if err != nil {
		return doc, fmt.Errorf("bench: stats op: %w", err)
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		return doc, fmt.Errorf("bench: stats document: %w", err)
	}
	return doc, nil
}

// mark is one instant's reading of every counter source.
type mark struct {
	at    time.Time
	stats statsDoc
	proc  procSample // the process under test
	self  procSample // the harness
	steal int64      // hostSteal
}

func takeMark(ctl *server.Client, pid int) (mark, error) {
	st, err := fetchStats(ctl)
	if err != nil {
		return mark{}, err
	}
	ps, err := readProc(pid)
	if err != nil {
		return mark{}, fmt.Errorf("bench: /proc/%d: %w", pid, err)
	}
	self, err := readProc(os.Getpid())
	if err != nil {
		return mark{}, err
	}
	steal, err := hostSteal()
	if err != nil {
		return mark{}, err
	}
	return mark{at: time.Now(), stats: st, proc: ps, self: self, steal: steal}, nil
}

// Phases of a run, read by the clients after every completed operation.
const (
	phaseWarmup int32 = iota
	phaseWindow
	phaseStop
)

// clientTally is one client's record of the window. Only the client's own
// goroutine touches it until that goroutine has finished.
type clientTally struct {
	lat       [numOpKinds][]int64 // exact latencies, ns, of correct replies
	attempted int64
	busy      int64 // refused by admission control (retried)
	wrong     int64 // wrong value, or a loaded key not found
	errs      int64 // call failed
	ring      *opRing
	fatal     error // could not dial; the client gave up
}

func (t *clientTally) failed() int64 { return t.busy + t.wrong + t.errs }

// closedLoop is one client: draw an op, send it, wait for the reply, check
// it, repeat until the run stops. Operations that complete while the window
// is open are counted; only correct replies record a latency.
func closedLoop(addr string, wl workloadDef, seed uint64, traced bool, phase *atomic.Int32, t *clientTally) {
	cl, err := server.Dial(addr)
	if err != nil {
		t.fatal = fmt.Errorf("bench: dial %s: %w", addr, err)
		return
	}
	defer func() { cl.Close() }()

	spec := workload.DefaultSpec()
	stream := workload.NewStream(spec, seed, wl.Items,
		workload.Mix{Gets: 100 - wl.PutPct, Puts: wl.PutPct}, 0)
	jitter := stats.NewRNG(seed ^ 0x6a09e667f3bcc908)
	var busyDelay time.Duration
	var pending *workload.Op // a refused op, retried in place

	for phase.Load() != phaseStop {
		var span opSpan
		if traced {
			span.Start = time.Now().UnixNano()
		}
		var op workload.Op
		if pending != nil {
			op, pending = *pending, nil
		} else {
			op = stream.Next()
		}
		key := spec.Key(op.ID)
		want := spec.Value(op.ID)
		if traced {
			span.TraceID = cl.TraceNext().TraceID
		}

		kind := opGet
		t0 := time.Now()
		var (
			got   []byte
			found bool
		)
		if op.Kind == workload.OpPut {
			kind = opPut
			err = cl.Put(key, want)
		} else {
			got, found, err = cl.Get(key)
		}
		t1 := time.Now()

		inWindow := phase.Load() == phaseWindow
		if inWindow {
			t.attempted++
		}
		switch {
		case errors.Is(err, server.ErrBusy):
			if inWindow {
				t.busy++
			}
			if busyDelay == 0 {
				busyDelay = busyBase
			} else if busyDelay *= 2; busyDelay > busyMax {
				busyDelay = busyMax
			}
			time.Sleep(busyDelay/2 + time.Duration(jitter.Int63n(int64(busyDelay)/2+1)))
			pending = &op
			continue
		case err != nil:
			if inWindow {
				t.errs++
			}
			if cl.Err() != nil { // transport failure: the connection is unusable
				cl.Close()
				if cl, err = server.Dial(addr); err != nil {
					t.fatal = fmt.Errorf("bench: redial %s: %w", addr, err)
					return
				}
			}
			continue
		case kind == opGet && (!found || !bytes.Equal(got, want)):
			if inWindow {
				t.wrong++
			}
			continue
		}
		busyDelay = 0
		if inWindow {
			t.lat[kind] = append(t.lat[kind], int64(t1.Sub(t0)))
		}
		if traced {
			span.Issue, span.End, span.Kind = t0.UnixNano(), t1.UnixNano(), uint8(kind)
			t.ring.add(span)
		}
	}
}

// serverPass runs one workload once against a fresh kvserve: set-up,
// warm-up, the measured window, teardown. With traced set, kvserve runs
// with its own tracer on every op and the harness records spans.
func serverPass(env *benchEnv, wl workloadDef, seed uint64, seconds int, traced bool) (*runResult, error) {
	res := newRunResult(wl.Name, seed, seconds, traced)
	name := wl.Name
	args := wl.ServerArgs
	serverSpans := filepath.Join(env.out, wl.Name+".server-spans.json")
	if traced {
		name += ".traced"
		args = append(append([]string(nil), args...), "-obs", "-obs-sample", "1", "-spans-out", serverSpans)
	}

	// Set-up: exec -> listening, sampled; the last instance serves the run.
	var (
		srv    *child
		addr   string
		setups []float64
		spent  time.Duration
	)
	setupStart := time.Now()
	for {
		c, a, took, err := env.startKVServe(name, args...)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		spent += took
		if len(setups) >= setupSamples || spent >= setupBudget {
			srv, addr = c, a
			break
		}
		c.kill()
	}
	defer srv.kill()
	phases := []phaseSpan{{Name: "setup", Start: setupStart, End: time.Now()}}
	res.set("setup_s", median(setups))

	ctl, err := server.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("bench: control connection: %w", err)
	}
	defer ctl.Close()

	var phase atomic.Int32
	tallies := make([]*clientTally, wl.Clients)
	var wg sync.WaitGroup
	for i := range tallies {
		t := &clientTally{}
		// Room for ~4x today's per-client rate; append grows it if a faster
		// server needs more.
		perClient := seconds * 10000
		t.lat[opGet] = make([]int64, 0, perClient)
		if wl.PutPct > 0 {
			t.lat[opPut] = make([]int64, 0, perClient)
		}
		if traced {
			t.ring = newOpRing()
		}
		tallies[i] = t
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			closedLoop(addr, wl, seed+uint64(i), traced, &phase, t)
		}(i)
	}
	stopClients := func() {
		phase.Store(phaseStop)
		wg.Wait()
	}

	warmStart := time.Now()
	time.Sleep(warmup)
	begin, err := takeMark(ctl, srv.pid())
	if err != nil {
		stopClients()
		return nil, err
	}
	phase.Store(phaseWindow)
	phases = append(phases, phaseSpan{Name: "warmup", Start: warmStart, End: begin.at})

	// The window. An early exit of kvserve fails the workload at once.
	select {
	case <-time.After(time.Duration(seconds) * time.Second):
	case <-srv.done:
		stopClients()
		return nil, fmt.Errorf("bench: kvserve exited during the window (%v)\n%s", srv.waitErr, srv.logTail())
	}
	end, err := takeMark(ctl, srv.pid())
	stopClients()
	if err != nil {
		return nil, err
	}
	phases = append(phases, phaseSpan{Name: "window", Start: begin.at, End: end.at})

	for _, t := range tallies {
		if t.fatal != nil {
			return nil, t.fatal
		}
	}
	serverWindowMetrics(res, wl, tallies, begin, end)

	if traced {
		// kvserve writes its span dump on a clean shutdown.
		if err := srv.stop(); err != nil {
			return nil, err
		}
		obsMetrics(res, begin.stats, end.stats)
		netUs, err := netShare(serverSpans, tallies)
		if err != nil {
			res.null("obs.net_us_p50", err.Error())
		} else {
			res.set("obs.net_us_p50", netUs)
		}
		rings := make([]*opRing, len(tallies))
		for i, t := range tallies {
			rings[i] = t.ring
		}
		if _, err := writeSpans(filepath.Join(env.out, wl.Name+".spans.json"), "client", phases, rings); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// serverWindowMetrics turns the two marks and the clients' tallies into the
// end-to-end metrics and the group A window counters.
func serverWindowMetrics(res *runResult, wl workloadDef, tallies []*clientTally, begin, end mark) {
	var lat [numOpKinds][]int64
	var wrong, errs int64
	for _, t := range tallies {
		res.Attempted += t.attempted
		res.Failed += t.failed()
		wrong += t.wrong
		errs += t.errs
		for k := range lat {
			lat[k] = append(lat[k], t.lat[k]...)
		}
	}
	res.Correct = wrong == 0 && errs == 0
	window := end.at.Sub(begin.at).Seconds()
	done := float64(len(lat[opGet]) + len(lat[opPut]))

	get := summarize(lat[opGet], 1e3)
	res.Timings["get"] = get
	res.set("throughput_ops_s", done/window)
	res.set("get_p50_us", get.P50)
	res.set("get_p99_us", get.P99)
	if wl.PutPct > 0 {
		put := summarize(lat[opPut], 1e3)
		res.Timings["put"] = put
		res.set("put_p50_us", put.P50)
		res.set("put_p99_us", put.P99)
	}
	res.set("failed_frac", float64(res.Failed)/float64(res.Attempted))
	res.set("cpu_us_per_op", float64(end.proc.CPUNs-begin.proc.CPUNs)/1e3/done)
	res.set("peak_rss_mb", float64(end.proc.HWMKiB)/1024)

	// Server-side counters are divided by the server's own op counts, read
	// at the same two instants.
	b, e := begin.stats, end.stats
	gets := float64(e.Ops["get"].Count - b.Ops["get"].Count)
	puts := float64(e.Ops["put"].Count - b.Ops["put"].Count)
	ops := gets + puts
	spec := workload.DefaultSpec()
	userBytes := puts * float64(spec.KeyBytes+spec.ValueBytes)
	const mb = 1 << 20
	readBytes := (e.DevReadMB - b.DevReadMB) * mb
	writeBytes := (e.DevWriteMB - b.DevWriteMB) * mb
	vclock := float64(e.VClockNs - b.VClockNs)

	res.set("virt_us_per_op", vclock/1e3/ops)
	if wl.Name != wlGetHot {
		res.set("read_ios_per_get", float64(e.DevReads-b.DevReads)/gets)
	}
	res.set("server.read_batch_fill", gets/(float64(e.ReadBatches-b.ReadBatches)*float64(e.BatchIOs)))
	busy := float64(e.Busy - b.Busy)
	res.set("server.busy_frac", busy/(ops+busy))
	res.set("server.get_service_p50_us", e.Ops["get"].P50Us)
	if begin.proc.Syscalls < 0 || end.proc.Syscalls < 0 {
		res.null("server.syscalls_per_op", "/proc/<pid>/io is unreadable here")
	} else {
		res.set("server.syscalls_per_op", float64(end.proc.Syscalls-begin.proc.Syscalls)/ops)
	}
	hits, misses := float64(e.PagerHits-b.PagerHits), float64(e.PagerMisses-b.PagerMisses)
	res.set("engine.pager_hit_ratio", hits/(hits+misses))
	res.set("engine.pager_evictions_per_op", float64(e.PagerEvictions-b.PagerEvictions)/ops)
	res.set("engine.pager_writebacks_per_op", float64(e.PagerWritebacks-b.PagerWritebacks)/ops)
	res.set("storage.read_bytes_per_op", readBytes/ops)
	res.set("storage.write_bytes_per_op", writeBytes/ops)
	if wl.Name == wlGetCold {
		// kvserve's -step default is 1 ms and the workload pins -p 16.
		const stepNs, p = 1e6, 16
		res.set("pdamdev.slot_util", float64(e.DevReads-b.DevReads)/(vclock/stepNs*p))
	}
	if wl.PutPct > 0 {
		res.set("write_amp", writeBytes/userBytes)
		res.set("server.write_batch_avg", float64(e.WriteOps-b.WriteOps)/float64(e.WriteBatches-b.WriteBatches))
		res.set("server.put_service_p50_us", e.Ops["put"].P50Us)
		res.set("engine.checkpoints", float64(e.Checkpoints-b.Checkpoints))
		res.set("engine.journal_bytes_per_user_byte", (e.JournalMB-b.JournalMB)*mb/userBytes)
		res.set("engine.ship_buffered", float64(e.ShipBuffered))
		records := float64(e.WALRecords - b.WALRecords)
		res.set("wal.records_per_commit", records/float64(e.WALCommits-b.WALCommits))
		res.set("wal.bytes_per_record", float64(e.WALBytes-b.WALBytes)/records)
	}
	res.set("bench.client_cpu_us_per_op", float64(end.self.CPUNs-begin.self.CPUNs)/1e3/done)
	res.set("bench.samples", done)
	res.set("bench.steal_pct", stealPct(begin.steal, end.steal, end.at.Sub(begin.at)))
}

// obsMetrics reads group B off kvserve's own tracer summary: each stack
// layer's share of the window's virtual IO time, the device concurrency
// estimate, and the model residuals.
func obsMetrics(res *runResult, b, e statsDoc) {
	layers := []string{"tree", "pager", "wal", "checkpoint"}
	if e.Obs == nil {
		for _, l := range layers {
			res.null("obs."+l+"_io_frac", "kvserve reported no obs summary")
		}
		return
	}
	delta := make(map[string]float64)
	total := 0.0
	for _, l := range e.Obs.Layers {
		delta[l.Layer] = l.TimeSeconds
	}
	if b.Obs != nil {
		for _, l := range b.Obs.Layers {
			delta[l.Layer] -= l.TimeSeconds
		}
	}
	for _, v := range delta {
		total += v
	}
	for _, l := range layers {
		if total == 0 {
			res.null("obs."+l+"_io_frac", "no virtual IO time in the window")
		} else {
			res.set("obs."+l+"_io_frac", delta[l]/total)
		}
	}
	if total == 0 {
		res.null("obs.avg_concurrency", "no device IO was traced")
	} else {
		res.set("obs.avg_concurrency", e.Obs.AvgConcurrency)
	}
	// Read-only spans carry the paper's read-centric claims; a workload whose
	// reads never reach the device has write residuals only.
	for _, model := range []string{"pdam", "dam"} {
		name := "obs.residual_" + model + "_p50"
		res.null(name, "no traced span did device IO")
		for _, class := range []string{"write", "read"} {
			for _, r := range e.Obs.Residuals {
				if r.Model == model && r.Class == class {
					res.set(name, r.P50)
				}
			}
		}
	}
}

// netShare is obs.net_us_p50: for the operations both sides still retain,
// the client-side round trip minus the server's own request span, matched
// by trace id — the socket, framing and client share of the latency.
func netShare(serverSpansPath string, tallies []*clientTally) (float64, error) {
	data, err := os.ReadFile(serverSpansPath)
	if err != nil {
		return 0, err
	}
	var spans []struct {
		TraceID     uint64 `json:"trace_id"`
		WallStartNs int64  `json:"wall_start_ns"`
		WallEndNs   int64  `json:"wall_end_ns"`
		Op          string `json:"op"`
	}
	if err := json.Unmarshal(data, &spans); err != nil {
		return 0, fmt.Errorf("bench: %s: %w", serverSpansPath, err)
	}
	serverNs := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		// A traced write also appears in its batch's commit span; the
		// request span is the one named after the op.
		if s.TraceID != 0 && (s.Op == "get" || s.Op == "put") {
			serverNs[s.TraceID] = s.WallEndNs - s.WallStartNs
		}
	}
	var diffs []int64
	for _, t := range tallies {
		t.ring.each(func(s opSpan) {
			if ns, ok := serverNs[s.TraceID]; ok {
				diffs = append(diffs, (s.End-s.Issue)-ns)
			}
		})
	}
	if len(diffs) == 0 {
		return 0, errors.New("no operation retained by both the client rings and kvserve's span ring")
	}
	return summarize(diffs, 1e3).P50, nil
}

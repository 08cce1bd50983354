package main

// embedded-betree: the library path with no server. A Bε-tree on the
// deterministic HDD model over a fault store, with the WAL, checkpoints and
// crash recovery on, driven in-process through the iomodels facade by one
// goroutine with a fixed op count — so every count repeats exactly — and
// checked against a shadow copy op by op, then again after recovery from
// nothing but the store image.
//
// The workload runs in a child process of its own (the harness re-executes
// itself): peak RSS is a high-water mark, so measuring it in the harness
// process would report whatever ran there before.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"iomodels"
	"iomodels/internal/obs"
	"iomodels/internal/workload"
)

const (
	embeddedItems = 200000
	// embeddedOpsPerSecond sizes the fixed op count, ops = this x -seconds.
	// It was sized once, at the commit that defined the benchmark, so that
	// the op phase takes about -seconds there; it is the same on every
	// commit, which is what makes the counts comparable.
	embeddedOpsPerSecond = 60000
	// embeddedTailOps run between an explicit checkpoint and the crash, so
	// that every recovery replays about the same WAL suffix (~9,000 records,
	// well under the half-full log that would trigger another checkpoint).
	embeddedTailOps      = 20000
	embeddedScanLen      = 50
	embeddedTheta        = 0.99
	embeddedDict         = "betree"
	embeddedResultMarker = "embedded-result: "
)

// embeddedConfig shapes one run; tests shrink it to toy scale.
type embeddedConfig struct {
	Items      int64
	Ops        int // the measured op phase
	TailOps    int // further ops between a checkpoint and the crash
	Seed       uint64
	Traced     bool
	CacheBytes int64
	LogBytes   int64
	SpansPath  string // traced: where to write the harness spans
}

func fullEmbeddedConfig(seed uint64, seconds int, traced bool) embeddedConfig {
	return embeddedConfig{
		Items: embeddedItems, Ops: embeddedOpsPerSecond * seconds, TailOps: embeddedTailOps,
		Seed: seed, Traced: traced,
		CacheBytes: 8 << 20, LogBytes: 8 << 20,
	}
}

func embeddedTreeConfig(spec workload.KeySpec) iomodels.BeTreeConfig {
	return iomodels.BeTreeConfig{
		NodeBytes: 64 << 10, MaxFanout: 16,
		MaxKeyBytes: spec.KeyBytes, MaxValueBytes: spec.ValueBytes,
	}.Optimized()
}

var embeddedMix = workload.Mix{Gets: 45, Puts: 35, Upserts: 5, Deletes: 5, Scans: 10, ScanLen: embeddedScanLen}

// embeddedPass runs the workload in a child process and reads its result.
func embeddedPass(env *benchEnv, wl workloadDef, seed uint64, seconds int, traced bool) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	name := wl.Name
	if traced {
		name += ".traced"
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	c, err := startChild(env.out, name, embeddedResultMarker, self, "-embedded-child",
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", trace)
	if err != nil {
		return nil, err
	}
	defer c.kill()
	// Load, the op phase and recovery each take about -seconds at worst.
	line, _, err := c.waitMarker(startTimeout + 4*time.Duration(seconds)*time.Second)
	if err != nil {
		return nil, err
	}
	res := newRunResult(wl.Name, seed, seconds, traced)
	js := line[strings.Index(line, embeddedResultMarker)+len(embeddedResultMarker):]
	if err := json.Unmarshal([]byte(js), res); err != nil {
		return nil, fmt.Errorf("bench: embedded child result: %w", err)
	}
	<-c.done
	if c.waitErr != nil {
		return nil, fmt.Errorf("bench: embedded child: %w\n%s", c.waitErr, c.logTail())
	}
	return res, nil
}

// embeddedChildMain is the child side of embeddedPass.
func embeddedChildMain(o options) error {
	env, err := newEnv()
	if err != nil {
		return err
	}
	cfg := fullEmbeddedConfig(o.seed, o.seconds, o.traced)
	cfg.SpansPath = filepath.Join(env.out, wlEmbedded+".spans.json")
	res := newRunResult(wlEmbedded, o.seed, o.seconds, o.traced)
	if err := runEmbedded(cfg, res); err != nil {
		return err
	}
	js, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", embeddedResultMarker, js)
	return nil
}

// shadow is the reference copy the tree is checked against: every key's
// current value (nil: absent), plus the key order for checking scans.
type shadow struct {
	spec  workload.KeySpec
	val   [][]byte // by id
	order []uint32 // ids in key order
	pos   []uint32 // id -> index in order
}

func newShadow(spec workload.KeySpec, items int64) *shadow {
	s := &shadow{spec: spec, val: make([][]byte, items), order: make([]uint32, items), pos: make([]uint32, items)}
	keys := make([][]byte, items)
	for id := range s.val {
		s.val[id] = spec.Value(uint64(id))
		keys[id] = spec.Key(uint64(id))
		s.order[id] = uint32(id)
	}
	sort.Slice(s.order, func(i, j int) bool { return bytes.Compare(keys[s.order[i]], keys[s.order[j]]) < 0 })
	for i, id := range s.order {
		s.pos[id] = uint32(i)
	}
	return s
}

// upsert is the reference semantics of a counter upsert: an 8-byte
// big-endian counter, starting from zero over anything else.
func (s *shadow) upsert(id uint64, delta int64) {
	var cur int64
	if old := s.val[id]; len(old) == 8 {
		cur = int64(binary.BigEndian.Uint64(old))
	}
	v := make([]byte, 8)
	binary.BigEndian.PutUint64(v, uint64(cur+delta))
	s.val[id] = v
}

// checkScan reports whether got is exactly the first limit live entries at
// or after id's key.
func (s *shadow) checkScan(id uint64, limit int, got []scanEntry) bool {
	n := 0
	for i := int(s.pos[id]); i < len(s.order) && n < limit; i++ {
		want := s.order[i]
		if s.val[want] == nil {
			continue
		}
		if n >= len(got) || !bytes.Equal(got[n].key, s.spec.Key(uint64(want))) || !bytes.Equal(got[n].val, s.val[want]) {
			return false
		}
		n++
	}
	return n == len(got)
}

// liveBytes is the user data currently stored: keys plus values.
func (s *shadow) liveBytes() int64 {
	var total int64
	for _, v := range s.val {
		if v != nil {
			total += int64(s.spec.KeyBytes + len(v))
		}
	}
	return total
}

// scanEntry is one scanned pair, copied out of the tree's callback into
// buffers reused across scans.
type scanEntry struct{ key, val []byte }

// embeddedMark is one instant's reading of every counter source.
type embeddedMark struct {
	at    time.Time
	virt  iomodels.VirtualTime
	reads int64 // device traffic, from the store
	read  int64 // bytes
	wrote int64 // bytes
	pager iomodels.PagerStats
	dur   iomodels.DurabilityStats
	proc  procSample // this process: CPU time and peak RSS
	steal int64      // hostSteal
}

// embeddedRun is the state of one run: the system under test, the shadow
// it is checked against, and what the op phase has recorded so far.
type embeddedRun struct {
	cfg   embeddedConfig
	spec  workload.KeySpec
	store *iomodels.FaultStore
	clk   *iomodels.Clock
	eng   *iomodels.Engine
	dict  *iomodels.Durable
	owner *iomodels.Client

	ref     *shadow
	stream  *workload.Stream
	scanBuf []scanEntry
	ring    *opRing // traced only

	lat       [numOpKinds][]int64 // latencies of correct ops, ns
	counts    [numOpKinds]int64
	userBytes int64 // key+value bytes the workload wrote
	wrong     int64
}

func (r *embeddedRun) mark() (embeddedMark, error) {
	c := r.store.Counters()
	proc, err := readProc(os.Getpid())
	if err != nil {
		return embeddedMark{}, err
	}
	steal, err := hostSteal()
	return embeddedMark{
		at: time.Now(), virt: r.clk.Now(),
		reads: c.Reads, read: c.BytesRead, wrote: c.BytesWritten,
		pager: r.eng.Pager().Stats(), dur: r.eng.DurabilityStats(), proc: proc, steal: steal,
	}, err
}

// step draws the next op, runs it against the tree and checks the reply
// against the shadow. Each case stops the clock right after the call into
// the tree: checking is harness work, not latency. A failed attempt records
// no latency.
func (r *embeddedRun) step() error {
	var span opSpan
	if r.ring != nil {
		span.Start = time.Now().UnixNano()
	}
	op := r.stream.Next()
	key := r.spec.Key(op.ID)
	var (
		kind int
		ok   bool
		t1   time.Time
	)
	t0 := time.Now()
	switch op.Kind {
	case workload.OpGet:
		kind = opGet
		sp := r.owner.StartSpan("get")
		v, found := r.dict.Get(key)
		r.owner.FinishSpan(sp)
		t1 = time.Now()
		ok = found == (r.ref.val[op.ID] != nil) && bytes.Equal(v, r.ref.val[op.ID])
	case workload.OpPut:
		kind = opPut
		v := r.spec.Value(op.ID)
		sp := r.owner.StartSpan("put")
		r.dict.Put(key, v)
		r.owner.FinishSpan(sp)
		t1 = time.Now()
		r.ref.val[op.ID], ok = v, true
		r.userBytes += int64(len(key) + len(v))
	case workload.OpUpsert:
		kind = opUpsert
		sp := r.owner.StartSpan("upsert")
		r.dict.Upsert(key, 1)
		r.owner.FinishSpan(sp)
		t1 = time.Now()
		r.ref.upsert(op.ID, 1)
		ok = true
		r.userBytes += int64(len(key) + 8)
	case workload.OpDelete:
		kind = opDelete
		sp := r.owner.StartSpan("delete")
		r.dict.Delete(key)
		r.owner.FinishSpan(sp)
		t1 = time.Now()
		r.ref.val[op.ID], ok = nil, true
		r.userBytes += int64(len(key))
	case workload.OpScan:
		kind = opScan
		n := 0
		sp := r.owner.StartSpan("scan")
		r.dict.Scan(key, nil, func(k, v []byte) bool {
			r.scanBuf[n].key = append(r.scanBuf[n].key[:0], k...)
			r.scanBuf[n].val = append(r.scanBuf[n].val[:0], v...)
			n++
			return n < op.Len
		})
		r.owner.FinishSpan(sp)
		t1 = time.Now()
		ok = r.ref.checkScan(op.ID, op.Len, r.scanBuf[:n])
	default:
		return fmt.Errorf("bench: unexpected op %v", op.Kind)
	}
	r.counts[kind]++
	if ok {
		r.lat[kind] = append(r.lat[kind], int64(t1.Sub(t0)))
	} else {
		r.wrong++
	}
	if r.ring != nil {
		span.Issue, span.End, span.Kind = t0.UnixNano(), t1.UnixNano(), uint8(kind)
		r.ring.add(span)
	}
	return nil
}

// runEmbedded runs the workload in this process and fills res.
func runEmbedded(cfg embeddedConfig, res *runResult) error {
	spec := workload.DefaultSpec()
	treeCfg := embeddedTreeConfig(spec)
	engCfg := iomodels.EngineConfig{CacheBytes: cfg.CacheBytes}
	durCfg := iomodels.DurabilityConfig{LogBytes: cfg.LogBytes}

	// ---- set-up: build and load ------------------------------------------
	setupStart := time.Now()
	r := &embeddedRun{cfg: cfg, spec: spec}
	r.store = iomodels.NewFaultStore(iomodels.NewHDDDeterministic(iomodels.HDDProfiles()[2]))
	r.clk = iomodels.NewClock()
	r.eng = iomodels.NewEngineOnStore(engCfg, r.store, r.clk)
	if err := r.eng.EnableDurability(durCfg); err != nil {
		return fmt.Errorf("bench: enable durability: %w", err)
	}
	tree, err := iomodels.NewBeTree(treeCfg, r.eng)
	if err != nil {
		return fmt.Errorf("bench: betree: %w", err)
	}
	if r.dict, err = r.eng.Durable(embeddedDict, tree); err != nil {
		return fmt.Errorf("bench: durable wrapper: %w", err)
	}
	workload.Load(r.dict, spec, cfg.Items)
	if err := r.eng.Sync(); err != nil {
		return fmt.Errorf("bench: sync after load: %w", err)
	}
	setupEnd := time.Now()
	res.set("setup_s", setupEnd.Sub(setupStart).Seconds())
	phases := []phaseSpan{{Name: "setup", Start: setupStart, End: setupEnd}}

	r.owner = r.eng.Owner()
	r.ref = newShadow(spec, cfg.Items)
	r.stream = workload.NewStream(spec, cfg.Seed, cfg.Items, embeddedMix, embeddedTheta)
	r.scanBuf = make([]scanEntry, embeddedScanLen)
	for i := range r.scanBuf {
		r.scanBuf[i] = scanEntry{key: make([]byte, 0, spec.KeyBytes), val: make([]byte, 0, spec.ValueBytes)}
	}
	for k := range r.lat {
		r.lat[k] = make([]int64, 0, cfg.Ops)
	}
	var tracer *obs.Tracer
	if cfg.Traced {
		tracer = obs.NewTracer(obs.Config{SampleEvery: 1})
		r.eng.SetTracer(tracer)
		r.ring = newOpRing()
	}

	// ---- the op phase -----------------------------------------------------
	begin, err := r.mark()
	if err != nil {
		return err
	}
	for i := 0; i < cfg.Ops; i++ {
		if err := r.step(); err != nil {
			return err
		}
	}
	end, err := r.mark()
	if err != nil {
		return err
	}
	phases = append(phases, phaseSpan{Name: "window", Start: begin.at, End: end.at})
	if err := end.dur.Err; err != nil {
		return fmt.Errorf("bench: durability degraded during the op phase: %w", err)
	}
	r.windowMetrics(res, begin, end)
	if cfg.Traced {
		sum := tracer.Summary()
		total := 0.0
		for _, l := range sum.Layers {
			total += l.TimeSeconds
		}
		for _, l := range []string{"tree", "pager", "wal", "checkpoint"} {
			res.set("obs."+l+"_io_frac", 0)
		}
		for _, l := range sum.Layers {
			res.set("obs."+l.Layer+"_io_frac", l.TimeSeconds/total)
		}
		res.set("obs.avg_concurrency", sum.AvgConcurrency)
		for _, name := range []string{"obs.residual_pdam_p50", "obs.residual_dam_p50"} {
			res.null(name, "the embedded tracer runs without calibrated models (the serial HDD's refined model is the affine one)")
		}
		r.eng.SetTracer(nil)
	}

	// ---- crash and recover ------------------------------------------------
	// How much recovery has to redo depends on where in its checkpoint cycle
	// the engine stops, which differs from seed to seed. A checkpoint and a
	// fixed tail of further ops pin it: recovery always loads one journal and
	// replays the tail's writes. Sync is then the last durable point, and
	// dropping the engine discards the pager, so recovery sees only what
	// reached the store image.
	if err := r.eng.Checkpoint(); err != nil {
		return fmt.Errorf("bench: checkpoint before the crash tail: %w", err)
	}
	windowWrong, ring := r.wrong, r.ring
	r.ring = nil // the span file holds the window's ops
	for i := 0; i < cfg.TailOps; i++ {
		if err := r.step(); err != nil {
			return err
		}
	}
	if err := r.eng.Sync(); err != nil {
		return fmt.Errorf("bench: sync before recovery: %w", err)
	}
	store, ref, tailWrong := r.store, r.ref, r.wrong-windowWrong
	r, tree = nil, nil
	// A restarted process recovers on an empty heap: collect the dropped
	// engine now, not in the middle of the timed recovery.
	runtime.GC()

	recoverStart := time.Now()
	eng, rec, err := iomodels.RecoverEngine(engCfg, durCfg, store, iomodels.NewClock())
	if err != nil {
		return fmt.Errorf("bench: recover: %w", err)
	}
	manifest, found := rec.Manifest(embeddedDict)
	if !found {
		return fmt.Errorf("bench: recover: no manifest for %q", embeddedDict)
	}
	if tree, err = iomodels.OpenBeTree(treeCfg, eng, manifest); err != nil {
		return fmt.Errorf("bench: reopen betree: %w", err)
	}
	if _, err := rec.Attach(embeddedDict, tree); err != nil {
		return fmt.Errorf("bench: attach: %w", err)
	}
	if _, err := rec.Replay(); err != nil {
		return fmt.Errorf("bench: replay: %w", err)
	}
	recoverEnd := time.Now()
	res.set("recover_ms", float64(recoverEnd.Sub(recoverStart))/1e6)
	phases = append(phases, phaseSpan{Name: "recover", Start: recoverStart, End: recoverEnd})

	// Every committed key must read back (and every deleted one stay gone).
	var lost int64
	for id, want := range ref.val {
		v, found := tree.Get(spec.Key(uint64(id)))
		if found != (want != nil) || !bytes.Equal(v, want) {
			lost++
		}
	}
	res.Failed += tailWrong + lost
	res.Correct = res.Failed == 0

	if ring != nil && cfg.SpansPath != "" {
		if _, err := writeSpans(cfg.SpansPath, "betree", phases, []*opRing{ring}); err != nil {
			return err
		}
	}
	return nil
}

// windowMetrics turns the op phase's two marks and records into the
// end-to-end metrics and the group A window counters.
func (r *embeddedRun) windowMetrics(res *runResult, begin, end embeddedMark) {
	ops := float64(r.cfg.Ops)
	res.Attempted, res.Failed = int64(r.cfg.Ops), r.wrong
	window := end.at.Sub(begin.at).Seconds()
	samples := 0
	for k, name := range opNames {
		if len(r.lat[k]) > 0 {
			res.Timings[name] = summarize(r.lat[k], 1e3)
			samples += len(r.lat[k])
		}
	}
	res.set("throughput_ops_s", (ops-float64(r.wrong))/window)
	res.set("get_p50_us", res.Timings["get"].P50)
	res.set("get_p99_us", res.Timings["get"].P99)
	res.set("put_p50_us", res.Timings["put"].P50)
	res.set("put_p99_us", res.Timings["put"].P99)
	res.set("scan_p50_us", res.Timings["scan"].P50)
	res.set("failed_frac", float64(r.wrong)/ops)
	res.set("cpu_us_per_op", float64(end.proc.CPUNs-begin.proc.CPUNs)/1e3/ops)
	res.set("peak_rss_mb", float64(end.proc.HWMKiB)/1024)
	res.set("virt_us_per_op", float64(end.virt-begin.virt)/1e3/ops)
	readBytes, writeBytes := float64(end.read-begin.read), float64(end.wrote-begin.wrote)
	userBytes := float64(r.userBytes)
	res.set("read_ios_per_get", float64(end.reads-begin.reads)/float64(r.counts[opGet]+r.counts[opScan]))
	res.set("write_amp", writeBytes/userBytes)
	res.set("space_amp", float64(r.eng.HighWater())/float64(r.ref.liveBytes()))

	hits := float64(end.pager.Hits - begin.pager.Hits)
	misses := float64(end.pager.Misses - begin.pager.Misses)
	res.set("engine.pager_hit_ratio", hits/(hits+misses))
	res.set("engine.pager_evictions_per_op", float64(end.pager.Evictions-begin.pager.Evictions)/ops)
	res.set("engine.pager_writebacks_per_op", float64(end.pager.Writebacks-begin.pager.Writebacks)/ops)
	res.set("engine.checkpoints", float64(end.dur.Checkpoints-begin.dur.Checkpoints))
	res.set("engine.journal_bytes_per_user_byte", float64(end.dur.JournalBytes-begin.dur.JournalBytes)/userBytes)
	records := float64(end.dur.LogRecords - begin.dur.LogRecords)
	res.set("wal.records_per_commit", records/float64(end.dur.LogCommits-begin.dur.LogCommits))
	res.set("wal.bytes_per_record", float64(end.dur.LogBytes-begin.dur.LogBytes)/records)
	res.set("storage.read_bytes_per_op", readBytes/ops)
	res.set("storage.write_bytes_per_op", writeBytes/ops)
	// The generator runs in the process under test here, so its cost is part
	// of cpu_us_per_op; workload.next_ns on the ladder prices it.
	res.null("bench.client_cpu_us_per_op", "the generator shares the process under test; see workload.next_ns")
	res.set("bench.samples", float64(samples))
	res.set("bench.steal_pct", stealPct(begin.steal, end.steal, end.at.Sub(begin.at)))
}

// exactCounts are the embedded metrics that are pure counts of a
// single-goroutine run: two runs of one seed must agree on them.
var exactCounts = []string{
	"virt_us_per_op", "read_ios_per_get", "write_amp", "space_amp",
	"engine.pager_hit_ratio", "engine.pager_evictions_per_op", "engine.pager_writebacks_per_op",
	"engine.checkpoints", "engine.journal_bytes_per_user_byte",
	"wal.records_per_commit", "wal.bytes_per_record",
	"storage.read_bytes_per_op", "storage.write_bytes_per_op",
}

// tagExact compares the count metrics of two runs of the same seed (the
// untraced and the traced pass) and tags each exact or not.
func tagExact(res, again *runResult) {
	res.Exact = make(map[string]bool, len(exactCounts))
	for _, name := range exactCounts {
		a, okA := res.Values[name]
		b, okB := again.Values[name]
		res.Exact[name] = okA && okB && a == b
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"iomodels/internal/workload"
)

func TestPercentiles(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// The highest reported percentile must leave at least ten samples beyond
// its rank, whatever the sample count.
func TestTopPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, // 20 samples: 10 lie beyond the median
		{99, 50}, {100, 90}, // p90 of 100 is the 90th: 10 beyond
		{999, 90}, {1000, 99},
		{7700, 99},        // a 10 s get-hot-c1 window
		{300000, 99.99},   // a 10 s get-cold-c16 window
		{1100000, 99.999}, // 11 beyond the p99.999 rank
	} {
		got := topPercentile(c.n)
		if got != c.want {
			t.Errorf("topPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if got > 0 {
			if beyond := c.n - 1 - rankIndex(c.n, got); beyond < 10 {
				t.Errorf("topPercentile(%d) = %g leaves %d samples beyond it", c.n, got, beyond)
			}
		}
	}
	s := summarize([]int64{5, 1, 4, 2, 3}, 1)
	if s.N != 5 || s.P50 != 3 || s.TopPct != 0 {
		t.Errorf("summarize(5 samples) = %+v", s)
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which the acceptance driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{10, 20}, 7.5, 22.5},
	} {
		q1, q3 := quartiles(c.vals)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.vals, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
}

// The same seed must generate the same operations, another seed others.
func TestOpStreamDeterministicPerSeed(t *testing.T) {
	spec := workload.DefaultSpec()
	draw := func(seed uint64) []workload.Op {
		s := workload.NewStream(spec, seed, embeddedItems, embeddedMix, embeddedTheta)
		ops := make([]workload.Op, 5000)
		for i := range ops {
			ops[i] = s.Next()
		}
		return ops
	}
	a, b, c := draw(1), draw(1), draw(2)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 1 diverged from itself at op %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Errorf("seeds 1 and 2 agree on %d of %d ops", same, len(a))
	}
	kinds := map[workload.OpKind]int{}
	for _, op := range a {
		kinds[op.Kind]++
		if op.Kind == workload.OpScan && op.Len != embeddedScanLen {
			t.Fatalf("scan of %d entries, want %d", op.Len, embeddedScanLen)
		}
	}
	for _, k := range []workload.OpKind{workload.OpGet, workload.OpPut, workload.OpUpsert, workload.OpDelete, workload.OpScan} {
		if kinds[k] == 0 {
			t.Errorf("mix generated no %v", k)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json's contract: exactly these keys.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONAgreesWithRegistry(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}

	if strings.Join(doc.Command, " ") != "go run ./bench" {
		t.Errorf("command = %q", doc.Command)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %q, want [bench]", doc.Paths)
	}
	if doc.RunSeconds != defaultSeconds || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, harness default %d", doc.RunSeconds, defaultSeconds)
	}

	// Limits: 2-8 workloads, 1-16 end-to-end, 1-128 per-layer, names used once.
	if n := len(doc.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the registry", n, len(workloads))
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end_to_end metrics, limit 16", n)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per_layer metrics, limit 128", n)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the allowed charset or length", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	for i, w := range doc.Workloads {
		use(w.Name)
		if i < len(workloads) && (w.Name != workloads[i].Name || w.Why != workloads[i].Why) {
			t.Errorf("workload %d: BENCHMARK.json has %q, the registry %q", i, w.Name, workloads[i].Name)
		}
		if len([]rune(w.Why)) > 200 || strings.ContainsAny(w.Why, "\n\r") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	gated := gatedMetrics()
	if len(doc.EndToEnd) != len(gated) {
		t.Fatalf("%d end_to_end metrics, %d gated in the registry", len(doc.EndToEnd), len(gated))
	}
	maxBound, setupBound := 0.0, -1.0
	for i, m := range doc.EndToEnd {
		use(m.Name)
		g := gated[i]
		if m.Name != g.Name || m.Unit != g.Unit || m.Better != g.Better || m.Bound != g.Bound {
			t.Errorf("end_to_end[%d] = %+v, registry has %+v", i, m, g)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the allowed charset or length", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if g.On != nil {
			t.Errorf("%s is gated but not defined on every workload", m.Name)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != betterLower {
				t.Errorf("setup_s must be in s, lower is better; got %+v", m)
			}
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s has bound %g, the largest is %g", setupBound, maxBound)
	}

	layers := layerMetrics()
	if len(doc.PerLayer) != len(layers) {
		t.Fatalf("%d per_layer metrics, %d in the registry", len(doc.PerLayer), len(layers))
	}
	for i, m := range doc.PerLayer {
		use(m.Name)
		l := layers[i]
		if m.Name != l.Name || m.Unit != l.Unit || m.Better != l.Better {
			t.Errorf("per_layer[%d] = %+v, registry has %+v", i, m, l)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the allowed charset or length", m.Name, m.Unit)
		}
	}
}

func TestRegistryIsConsistent(t *testing.T) {
	if n := len(e2eMetrics()); n != 15 {
		t.Errorf("%d end-to-end metrics, the issue defines 15", n)
	}
	perLayer := 0
	for _, m := range metrics {
		if m.Better != betterLower && m.Better != betterHigher {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		for _, w := range m.On {
			if _, ok := findWorkload(w); !ok {
				t.Errorf("%s is defined on unknown workload %q", m.Name, w)
			}
		}
		if m.Group == groupE2E {
			if (m.Bound > 0) == (m.AbsBound > 0) {
				t.Errorf("%s needs exactly one of Bound and AbsBound", m.Name)
			}
			continue
		}
		perLayer++
		if m.Bound != 0 || m.AbsBound != 0 || m.Gated {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
		if m.Group == groupLadder && len(m.On) != 1 {
			t.Errorf("%s: a ladder rung is measured by exactly one workload's traced run", m.Name)
		}
		// The prediction: a registered end-to-end metric on a registered
		// workload, or an explicit "none".
		if strings.HasPrefix(m.Moves, "none") {
			continue
		}
		namesMetric, namesWorkload := false, false
		for _, e := range e2eMetrics() {
			namesMetric = namesMetric || strings.Contains(m.Moves, e.Name)
		}
		for _, w := range workloads {
			namesWorkload = namesWorkload || strings.Contains(m.Moves, w.Name)
		}
		if !namesMetric || !namesWorkload {
			t.Errorf("%s: prediction %q names no end-to-end metric and workload (and is not \"none\")", m.Name, m.Moves)
		}
	}
	if perLayer != 86 { // the issue's 85 and bench.steal_pct
		t.Errorf("%d per-layer metrics, want the issue's 85 and bench.steal_pct", perLayer)
	}
}

func TestDriverLine(t *testing.T) {
	r := newRunResult(wlGetHot, 1, 10, false)
	r.Attempted = 100
	for _, m := range gatedMetrics() {
		r.set(m.Name, 1.5)
	}
	r.set("server.read_batch_fill", 0.0625)
	parse := func(line string) map[string]struct {
		Value float64
		Unit  string
	} {
		var out struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(line), &out); err != nil {
			t.Fatal(err)
		}
		if !out.Correct || out.Attempted != 100 || out.Failed != 0 {
			t.Errorf("driver line header = %+v", out)
		}
		return out.Metrics
	}

	line, err := r.driverLine()
	if err != nil {
		t.Fatal(err)
	}
	got := parse(line)
	if len(got) != len(gatedMetrics()) {
		t.Errorf("untraced line has %d metrics, want the %d gated ones", len(got), len(gatedMetrics()))
	}
	if got["setup_s"].Unit != "s" || got["setup_s"].Value != 1.5 {
		t.Errorf("setup_s = %+v", got["setup_s"])
	}

	r.Traced = true
	line, err = r.driverLine()
	if err != nil {
		t.Fatal(err)
	}
	got = parse(line)
	if len(got) != len(layerMetrics()) {
		t.Errorf("traced line has %d metrics, want all %d per-layer ones", len(got), len(layerMetrics()))
	}
	if got["server.read_batch_fill"].Value != 0.0625 || got["recover_ms"].Value != notMeasured {
		t.Errorf("traced line: read_batch_fill = %+v, recover_ms = %+v", got["server.read_batch_fill"], got["recover_ms"])
	}

	// A gated metric without a value, or a run that attempted nothing, must
	// not produce a line.
	delete(r.Values, "setup_s")
	r.Traced = false
	if _, err := r.driverLine(); err == nil {
		t.Error("driverLine accepted a run without setup_s")
	}
}

func TestFillNullsExplainsEveryMetric(t *testing.T) {
	r := newRunResult(wlGetCold, 1, 10, false)
	r.set("setup_s", 2)
	r.set("bad", math.NaN())
	r.fillNulls()
	for _, m := range metrics {
		_, hasValue := r.Values[m.Name]
		_, hasNull := r.Nulls[m.Name]
		if hasValue == hasNull {
			t.Errorf("%s: value=%v null=%v, want exactly one", m.Name, hasValue, hasNull)
		}
	}
	if r.Nulls["bad"] == "" {
		t.Error("a NaN value was not turned into an explained null")
	}
	if why := r.Nulls["betree.put_ns"]; !strings.Contains(why, wlEmbedded) {
		t.Errorf("betree.put_ns on get-cold-c16: %q does not name the workload that measures it", why)
	}
}

// docOf builds a one-workload document from runs of one metric.
func docOf(metric string, values ...float64) *document {
	d := newDocument(options{seed: 1, seconds: 10, repeat: len(values)})
	for i, v := range values {
		r := newRunResult(wlGetHot, uint64(i+1), 10, false)
		r.Attempted = 1
		r.set(metric, v)
		d.add(r)
	}
	return d
}

func TestCompareVerdicts(t *testing.T) {
	verdict := func(base, cur *document) (string, error) {
		var buf bytes.Buffer
		err := compare(&buf, base, cur)
		return buf.String(), err
	}
	steady := docOf("throughput_ops_s", 1000, 1001, 999, 1000)
	tput, _ := findMetric("throughput_ops_s")
	at := func(change float64) *document { // four steady runs at 1000 x (1+change)
		v := 1000 * (1 + change)
		return docOf("throughput_ops_s", v, v+1, v-1, v)
	}

	// Higher is better: losing more ops/s than the bound allows is a regression.
	out, err := verdict(steady, at(-tput.Bound-0.02))
	if !errors.Is(err, errRegression) || !strings.Contains(out, "REGRESSION") {
		t.Errorf("a throughput loss beyond the bound was not a regression:\n%s", out)
	}
	if out, err := verdict(steady, at(-tput.Bound/2)); err != nil || !strings.Contains(out, "ok") {
		t.Errorf("a throughput loss of half the bound: err=%v\n%s", err, out)
	}
	// Inside the bound, but the runs spread wider than it: unresolved.
	if out, err := verdict(steady, docOf("throughput_ops_s", 600, 1400, 800, 1200)); err != nil || !strings.Contains(out, "unresolved") {
		t.Errorf("a wide spread was not reported as unresolved: err=%v\n%s", err, out)
	}
	if out, err := verdict(steady, at(tput.Bound+0.05)); err != nil || !strings.Contains(out, "better") {
		t.Errorf("a gain beyond the bound: err=%v\n%s", err, out)
	}
	// Lower is better, and failed_frac has an absolute bound.
	p50, _ := findMetric("get_p50_us")
	slower := 100 * (1 + p50.Bound + 0.02)
	if _, err := verdict(docOf("get_p50_us", 100, 100), docOf("get_p50_us", slower, slower)); !errors.Is(err, errRegression) {
		t.Error("a median get slower by more than the bound was not a regression")
	}
	if _, err := verdict(docOf("failed_frac", 0, 0), docOf("failed_frac", 0.01, 0.01)); !errors.Is(err, errRegression) {
		t.Error("a higher failed_frac was not a regression")
	}
	if _, err := verdict(docOf("failed_frac", 0, 0), docOf("failed_frac", 0, 0)); err != nil {
		t.Errorf("failed_frac 0 -> 0: %v", err)
	}
	// Per-layer metrics are shown but never gate.
	if _, err := verdict(docOf("server.read_batch_fill", 0.9, 0.9), docOf("server.read_batch_fill", 0.1, 0.1)); err != nil {
		t.Errorf("a per-layer change gated: %v", err)
	}

	var buf bytes.Buffer
	docOf("throughput_ops_s", 600, 1400, 800, 1200).printSpreads(&buf)
	if !strings.Contains(buf.String(), "WIDER THAN BOUND") {
		t.Errorf("-repeat table did not flag a spread wider than the bound:\n%s", buf.String())
	}
}

func TestDocumentRoundTrip(t *testing.T) {
	d := docOf("setup_s", 1, 2, 3)
	path := filepath.Join(t.TempDir(), "doc.json")
	if err := d.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := readDocument(path)
	if err != nil {
		t.Fatal(err)
	}
	s := back.Workloads[wlGetHot].Summary["setup_s"]
	if s.N != 3 || s.Median != 2 || s.Spread == nil {
		t.Errorf("summary after round trip = %+v", s)
	}
}

// The committed baseline must load and cover every workload and every
// gated metric, or -compare against it silently checks nothing.
func TestCommittedBaselineLoads(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	d, err := readDocument(filepath.Join(root, "bench", "baselines", "BENCH_11.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		wd := d.Workloads[w.Name]
		if wd == nil {
			t.Errorf("baseline lacks workload %s", w.Name)
			continue
		}
		for _, m := range metrics {
			if _, ok := wd.Summary[m.Name]; !ok && m.definedOn(w.Name) && m.Group != groupObs {
				if _, explained := wd.Runs[0].Nulls[m.Name]; !explained {
					t.Errorf("baseline lacks %s on %s", m.Name, w.Name)
				}
			}
		}
		for _, run := range wd.Runs {
			if !run.Correct || run.Failed != 0 {
				t.Errorf("baseline run of %s (seed %d): correct=%v failed=%d", w.Name, run.Seed, run.Correct, run.Failed)
			}
		}
	}
}

func TestLineWatcherFindsMarkerAcrossWrites(t *testing.T) {
	lw := &lineWatcher{w: io.Discard, marker: listenMarker, found: make(chan markerHit, 1)}
	for _, chunk := range []string{"kvserve: preloaded 10 items\nkvserve: liste", "ning on 127.0.0.1:4", "5123\nmore\n"} {
		if _, err := lw.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case hit := <-lw.found:
		if !strings.HasSuffix(hit.line, "listening on 127.0.0.1:45123") {
			t.Errorf("marker line = %q", hit.line)
		}
	default:
		t.Fatal("marker split across writes was not found")
	}
}

// embedded-betree at toy scale, end to end: load, the checked op phase with
// checkpoints, crash, recover, re-verify every key — traced, so the span
// file is exercised too.
func TestEmbeddedToyScale(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.json")
	cfg := embeddedConfig{
		Items: 20000, Ops: 12000, TailOps: 1000, Seed: 3, Traced: true, // data ~2x the cache
		CacheBytes: 1 << 20, LogBytes: 1 << 20, SpansPath: spans,
	}
	run := func() *runResult {
		res := newRunResult(wlEmbedded, cfg.Seed, 1, cfg.Traced)
		if err := runEmbedded(cfg, res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if !res.Correct || res.Failed != 0 || res.Attempted != int64(cfg.Ops) {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, m := range metrics {
		if m.Group == groupLadder || !m.definedOn(wlEmbedded) {
			continue
		}
		_, hasValue := res.Values[m.Name]
		_, hasNull := res.Nulls[m.Name]
		if !hasValue && !hasNull && m.Name != "obs.overhead_pct" {
			t.Errorf("%s: neither measured nor explained", m.Name)
		}
	}
	for _, name := range []string{"setup_s", "throughput_ops_s", "get_p50_us", "put_p50_us", "scan_p50_us",
		"virt_us_per_op", "read_ios_per_get", "write_amp", "space_amp", "recover_ms", "peak_rss_mb"} {
		if v := res.Values[name]; !(v > 0) {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	if res.Values["engine.checkpoints"] < 1 {
		t.Errorf("no checkpoint completed in the op phase (%v)", res.Values["engine.checkpoints"])
	}
	if sum := res.Values["obs.tree_io_frac"] + res.Values["obs.pager_io_frac"] +
		res.Values["obs.wal_io_frac"] + res.Values["obs.checkpoint_io_frac"]; math.Abs(sum-1) > 1e-9 {
		t.Errorf("layer IO shares sum to %g, want 1", sum)
	}

	// Write-side counts of a single-goroutine run repeat exactly.
	again := run()
	tagExact(res, again)
	for _, name := range []string{"write_amp", "space_amp", "engine.checkpoints", "wal.records_per_commit", "wal.bytes_per_record"} {
		if !res.Exact[name] {
			t.Errorf("%s did not repeat exactly: %v vs %v", name, res.Values[name], again.Values[name])
		}
	}

	// The span file: phases first, then per op a req with two children.
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var file []spanJSON
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for i, s := range file {
		names[s.Name]++
		if s.EndNs < s.StartNs {
			t.Fatalf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent >= i {
			t.Fatalf("span %d (%s) has parent %d, not an earlier span", i, s.Name, s.Parent)
		}
		if s.Name == "workload.next" || strings.HasPrefix(s.Name, "betree.") {
			if p := file[s.Parent]; p.Name != "req" || p.Req != s.Req {
				t.Fatalf("span %d (%s) is not under its request's root", i, s.Name)
			}
		}
	}
	for _, phase := range []string{"setup", "window", "recover"} {
		if names[phase] != 1 {
			t.Errorf("%d %q phase spans, want 1", names[phase], phase)
		}
	}
	if names["req"] != opRingCap || names["workload.next"] != opRingCap {
		t.Errorf("%d req / %d workload.next spans, want the newest %d ops", names["req"], names["workload.next"], opRingCap)
	}
}

// A tree that loses or corrupts data must be caught: checkScan against a
// shadow with a deleted key.
func TestShadowChecksScans(t *testing.T) {
	spec := workload.DefaultSpec()
	s := newShadow(spec, 100)
	first := uint64(s.order[0])
	entries := func(ids ...uint32) []scanEntry {
		var out []scanEntry
		for _, id := range ids {
			out = append(out, scanEntry{key: spec.Key(uint64(id)), val: s.val[id]})
		}
		return out
	}
	if !s.checkScan(first, 3, entries(s.order[0], s.order[1], s.order[2])) {
		t.Error("a correct scan was rejected")
	}
	if s.checkScan(first, 3, entries(s.order[0], s.order[2], s.order[3])) {
		t.Error("a scan that skipped a live key was accepted")
	}
	if s.checkScan(first, 3, entries(s.order[0], s.order[1])) {
		t.Error("a short scan was accepted")
	}
	s.val[s.order[1]] = nil // deleted
	if !s.checkScan(first, 3, entries(s.order[0], s.order[2], s.order[3])) {
		t.Error("a scan that skipped a deleted key was rejected")
	}
	if !s.checkScan(uint64(s.order[98]), 50, entries(s.order[98], s.order[99])) {
		t.Error("a scan that ran off the end of the keyspace was rejected")
	}
	s.upsert(first, 1)
	s.upsert(first, 1)
	if !bytes.Equal(s.val[first], []byte{0, 0, 0, 0, 0, 0, 0, 2}) {
		t.Errorf("two upserts over a non-counter value = %v, want counter 2", s.val[first])
	}
}

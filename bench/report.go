package main

// The result document (what -out writes and -compare reads), the printed
// report, the -repeat spread table and the -compare verdicts.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
)

// document is one invocation's results: every run of every workload, plus a
// per-metric summary across the runs of each workload.
type document struct {
	Schema    int                     `json:"schema"`
	Seed      uint64                  `json:"seed"`
	Seconds   int                     `json:"seconds"`
	Repeat    int                     `json:"repeat"`
	Traced    bool                    `json:"traced"`
	GoVersion string                  `json:"go_version"`
	NumCPU    int                     `json:"num_cpu"`
	Workloads map[string]*workloadDoc `json:"workloads"`
}

type workloadDoc struct {
	Runs    []*runResult             `json:"runs"`
	Summary map[string]metricSummary `json:"summary"`
}

// metricSummary condenses one metric's values over a workload's runs.
// Q1, Q3 and Spread need at least two runs and are omitted otherwise.
type metricSummary struct {
	Unit   string   `json:"unit"`
	N      int      `json:"n"`
	Median float64  `json:"median"`
	Q1     *float64 `json:"q1,omitempty"`
	Q3     *float64 `json:"q3,omitempty"`
	Spread *float64 `json:"spread,omitempty"` // (q3-q1)/median
}

func newDocument(o options) *document {
	return &document{
		Schema: 1, Seed: o.seed, Seconds: o.seconds, Repeat: o.repeat, Traced: o.traced,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Workloads: make(map[string]*workloadDoc),
	}
}

// add appends a run and refreshes its workload's summary.
func (d *document) add(r *runResult) {
	w := d.Workloads[r.Workload]
	if w == nil {
		w = &workloadDoc{}
		d.Workloads[r.Workload] = w
	}
	w.Runs = append(w.Runs, r)
	w.Summary = make(map[string]metricSummary)
	for _, m := range metrics {
		var vals []float64
		for _, run := range w.Runs {
			if v, ok := run.Values[m.Name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			continue
		}
		s := metricSummary{Unit: m.Unit, N: len(vals), Median: median(vals)}
		if len(vals) >= 2 {
			q1, q3 := quartiles(vals)
			s.Q1, s.Q3 = &q1, &q3
			if sp := spread(vals); !math.IsNaN(sp) {
				s.Spread = &sp
			}
		}
		w.Summary[m.Name] = s
	}
}

func (d *document) write(path string) error {
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if d.Schema != 1 {
		return nil, fmt.Errorf("bench: %s: schema %d, want 1", path, d.Schema)
	}
	return &d, nil
}

// orderedWorkloads returns the document's workload names in registry order.
func (d *document) orderedWorkloads() []string {
	var names []string
	for _, w := range workloads {
		if _, ok := d.Workloads[w.Name]; ok {
			names = append(names, w.Name)
		}
	}
	return names
}

// fmtValue prints a metric value with enough digits to compare runs.
func fmtValue(v float64) string {
	switch a := math.Abs(v); {
	case a == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// printRun prints one run: every end-to-end metric by name and unit, the
// latency classes with their sample counts, and (traced) the per-layer
// metrics, each with its value or the reason it has none.
func printRun(w io.Writer, r *runResult) {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "  correct=%v\tattempted=%d\tfailed=%d\n", r.Correct, r.Attempted, r.Failed)
	row := func(m metricDef) {
		if v, ok := r.Values[m.Name]; ok {
			tag := ""
			if exact, ok := r.Exact[m.Name]; ok {
				tag = fmt.Sprintf("exact=%v", exact)
			}
			fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\n", m.Name, fmtValue(v), m.Unit, tag)
		} else if m.definedOn(r.Workload) {
			fmt.Fprintf(tw, "  %s\tnull\t%s\t(%s)\n", m.Name, m.Unit, r.Nulls[m.Name])
		}
	}
	for _, m := range e2eMetrics() {
		row(m)
	}
	names := make([]string, 0, len(r.Timings))
	for name := range r.Timings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := r.Timings[name]
		top := "(no percentile has 10 samples beyond it)"
		if t.TopPct > 0 {
			top = fmt.Sprintf("highest supported: p%g=%s", t.TopPct, fmtValue(t.Top))
		}
		fmt.Fprintf(tw, "  latency %s\tn=%d\tus\tp50=%s p99=%s, %s\n", name, t.N, fmtValue(t.P50), fmtValue(t.P99), top)
	}
	for _, m := range metrics {
		if m.Group == groupE2E || (!r.Traced && m.Group != groupWindow) {
			continue
		}
		row(m)
	}
	tw.Flush()
}

// printSpreads is the -repeat table: for every workload and end-to-end
// metric, the median, quartiles and spread of the runs against the bound.
// A spread above the bound means the benchmark cannot resolve a regression
// of the bound's size on that metric.
func (d *document) printSpreads(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "\nworkload\tmetric\tunit\tmedian\tq1\tq3\tspread\tbound\t\n")
	for _, name := range d.orderedWorkloads() {
		wd := d.Workloads[name]
		for _, m := range e2eMetrics() {
			s, ok := wd.Summary[m.Name]
			if !ok || s.Q1 == nil {
				continue
			}
			sp, verdict := "-", ""
			if s.Spread != nil {
				sp = fmt.Sprintf("%.1f%%", 100**s.Spread)
				switch {
				case m.Bound == 0:
				case *s.Spread > m.Bound:
					verdict = "WIDER THAN BOUND"
				case *s.Spread > m.Bound/3:
					verdict = "over a third of the bound"
				}
			}
			bound := fmt.Sprintf("%.0f%%", 100*m.Bound)
			if m.AbsBound > 0 {
				bound = fmt.Sprintf("+%g abs", m.AbsBound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n", name, m.Name, m.Unit,
				fmtValue(s.Median), fmtValue(*s.Q1), fmtValue(*s.Q3), sp, bound, verdict)
		}
	}
	tw.Flush()
}

// errRegression is returned by compare when a bound was exceeded.
var errRegression = errors.New("bench: regression against the baseline")

// worsening is how much worse cur is than base as a share of base
// (negative: better), in the metric's own direction.
func worsening(m metricDef, base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (cur - base) / math.Abs(base)
	if m.Better == betterHigher {
		d = -d
	}
	return d
}

// compare prints, per workload, the change of every metric against the
// baseline's median and applies each end-to-end metric's bound. A metric
// within its bound whose own run-to-run spread (on either side) exceeds that
// bound is reported as unresolved, not as unchanged. The error is
// errRegression if any bound was exceeded or failed_frac rose.
func compare(w io.Writer, base, cur *document) error {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	regressed := false
	fmt.Fprintf(tw, "\nworkload\tmetric\tunit\tbaseline\tnow\tchange\tbound\tverdict\n")
	for _, name := range cur.orderedWorkloads() {
		bw, ok := base.Workloads[name]
		if !ok {
			fmt.Fprintf(tw, "%s\t(not in the baseline)\n", name)
			continue
		}
		cw := cur.Workloads[name]
		for _, m := range metrics {
			b, okB := bw.Summary[m.Name]
			c, okC := cw.Summary[m.Name]
			if !okB || !okC {
				continue
			}
			worse := worsening(m, b.Median, c.Median)
			change := fmt.Sprintf("%+.1f%%", 100*(c.Median-b.Median)/math.Abs(b.Median))
			if b.Median == 0 {
				change = fmt.Sprintf("%+g", c.Median-b.Median)
			}
			bound, verdict := "", ""
			switch {
			case m.Group != groupE2E:
			case m.AbsBound > 0:
				bound = fmt.Sprintf("+%g abs", m.AbsBound)
				verdict = "ok"
				if c.Median-b.Median > m.AbsBound {
					verdict, regressed = "REGRESSION", true
				}
			default:
				bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
				wide := (b.Spread != nil && *b.Spread > m.Bound) || (c.Spread != nil && *c.Spread > m.Bound)
				switch {
				case worse > m.Bound:
					verdict, regressed = "REGRESSION", true
				case wide:
					verdict = "unresolved (spread exceeds the bound)"
				case worse < -m.Bound:
					verdict = "better"
				default:
					verdict = "ok"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n", name, m.Name, m.Unit,
				fmtValue(b.Median), fmtValue(c.Median), change, bound, verdict)
		}
		for _, run := range cw.Runs {
			if !run.Correct {
				fmt.Fprintf(tw, "%s\tcorrectness check failed (seed %d)\t\t\t\t\t\tREGRESSION\n", name, run.Seed)
				regressed = true
			}
		}
	}
	tw.Flush()
	if regressed {
		return errRegression
	}
	return nil
}

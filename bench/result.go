package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// runResult is everything one run of one workload measured.
type runResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`

	// Correct is false if any reply carried a wrong value, a loaded key was
	// not found, a call failed, or recovery did not reproduce every
	// committed key. Busy refusals count as Failed but not as incorrect.
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`

	// Values holds every metric the run measured, by registry name. A
	// metric that is not defined on this workload, or could not be read, is
	// absent here and explained in Nulls.
	Values map[string]float64 `json:"values"`
	Nulls  map[string]string  `json:"nulls,omitempty"`
	// Exact tags count metrics (embedded-betree, traced pass): true when the
	// untraced and the traced run of the same seed produced the same count.
	Exact map[string]bool `json:"exact,omitempty"`
	// Timings holds the full summary (n, p50, p99, top percentile) of every
	// latency class, in microseconds.
	Timings map[string]timing `json:"timings,omitempty"`
}

func newRunResult(workload string, seed uint64, seconds int, traced bool) *runResult {
	return &runResult{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		Correct: true,
		Values:  make(map[string]float64),
		Nulls:   make(map[string]string),
		Timings: make(map[string]timing),
	}
}

// set records a metric value; a NaN or infinite value (a ratio over an
// empty denominator) becomes an explained null instead.
func (r *runResult) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.null(name, "denominator was zero in this window")
		return
	}
	delete(r.Nulls, name)
	r.Values[name] = v
}

func (r *runResult) null(name, why string) {
	delete(r.Values, name)
	r.Nulls[name] = why
}

// fillNulls explains every registry metric the run neither measured nor
// explained: not defined on this workload, or measured by the traced pass
// only.
func (r *runResult) fillNulls() {
	for _, m := range metrics {
		if _, ok := r.Values[m.Name]; ok {
			continue
		}
		if _, ok := r.Nulls[m.Name]; ok {
			continue
		}
		switch {
		case !m.definedOn(r.Workload) && m.Group == groupLadder:
			r.Nulls[m.Name] = "ladder rung measured by the traced run of " + m.On[0]
		case !m.definedOn(r.Workload):
			r.Nulls[m.Name] = "not defined on this workload"
		case !r.Traced && (m.Group == groupObs || m.Group == groupLadder):
			r.Nulls[m.Name] = "traced pass only (-trace 1)"
		default:
			r.Nulls[m.Name] = "not measured"
		}
	}
}

// notMeasured is the value the driver line carries for a per-layer metric
// with no measurement on this workload (the driver accepts numbers only).
// Real metrics are non-negative, except the two differences noise can push
// below zero (obs.overhead_pct, cluster.router_overhead_us) — and those do
// not land on -1 exactly.
const notMeasured = -1

// driverLine renders the one-line JSON object the acceptance driver reads
// from the end of standard output: the gated end-to-end metrics for an
// untraced run, every other metric for a traced one.
func (r *runResult) driverLine() (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := gatedMetrics()
	if r.Traced {
		defs = layerMetrics()
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv, len(defs))}
	for _, m := range defs {
		v, ok := r.Values[m.Name]
		switch {
		case ok:
		case m.Gated:
			return "", fmt.Errorf("bench: gated metric %s missing on %s: %s", m.Name, r.Workload, r.Nulls[m.Name])
		default:
			v = notMeasured
		}
		out.Metrics[m.Name] = mv{Value: v, Unit: m.Unit}
	}
	if out.Attempted < 1 {
		return "", fmt.Errorf("bench: %s attempted no operation", r.Workload)
	}
	b, err := json.Marshal(out)
	return string(b), err
}

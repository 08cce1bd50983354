// The model-cost accountant: for every traced operation it computes the
// cost the DAM, affine, and PDAM models predict for the operation's device
// IOs (reusing internal/core's cost functions with the device's fitted
// s, t, P, B) and compares it with the measured virtual-time cost,
// maintaining a live residual histogram per model — the §4 prediction-error
// experiments (E7/E8) as a continuously updated serving metric.
package obs

import (
	"math"

	"iomodels/internal/core"
	"iomodels/internal/stats"
)

// Model indexes the cost models (a row of the models table).
type Model int

// The cost models, in increasing order of refinement for parallel devices:
// the paper's three plus the multi-queue refinement of the PDAM (core.MQ).
const (
	ModelDAM Model = iota
	ModelAffine
	ModelPDAM
	ModelMQ
)

// models is the model table: a model is its name and the cost it predicts
// for one IO of size bytes at average offered concurrency conc, from one
// device's calibration. The accountant keeps a residual histogram per row,
// so another model is another row (and its index above).
var models = [...]struct {
	name    string
	predict func(m Models, size int64, conc float64) float64
}{
	ModelDAM:    {"dam", predictDAM},
	ModelAffine: {"affine", predictAffine},
	ModelPDAM:   {"pdam", predictPDAM},
	ModelMQ:     {"mq", predictMQ},
}

// String names the model.
func (m Model) String() string {
	if m < 0 || int(m) >= len(models) {
		return "unknown"
	}
	return models[m].name
}

// Models carries one device's fitted cost-model parameters, produced by
// calibrate.go. All three predictions run off the same calibration, exactly
// as in the paper's §4 comparisons.
type Models struct {
	Device string `json:"device"`

	// Affine is the fitted s (Setup, seconds) and t (PerByte, seconds) of
	// Definition 2, from an IO-size sweep (Table 2 methodology).
	Affine   core.Affine `json:"affine"`
	AffineR2 float64     `json:"affine_r2"`

	// DAM is the block size and unit cost the DAM prediction uses. For a
	// serial device it is Lemma 1's reading of the affine fit (block =
	// half-bandwidth point s/t, unit cost 2s); for a parallel device it is
	// the calibration block B at the single-thread step time (§4.1's
	// "one block per step" reading).
	DAM core.DAM `json:"dam"`

	// PDAM is the fitted Definition 1 device: P from the thread-sweep knee
	// (Figure 1 / Table 1 methodology), block B, and the single-block step
	// time. On a serial device P = 1 and the PDAM collapses to the DAM.
	PDAM   core.PDAM `json:"pdam"`
	PDAMR2 float64   `json:"pdam_r2"`

	// MQ is the multi-queue refinement: queue count, per-queue slots, depth
	// cap, and cross-queue interference. On devices without queue structure
	// it is the degenerate single-queue reading of the PDAM
	// (core.MQFromPDAM), so the mq prediction collapses to the pdam one and
	// the four-model residual table always renders.
	MQ core.MQ `json:"mq"`

	// SatBytesPerSec is the derived saturation throughput ∝PB (Table 1):
	// past the knee the PDAM prediction is bandwidth-bound at this rate.
	SatBytesPerSec float64 `json:"sat_bytes_per_sec"`

	// Serial marks devices with no internal parallelism (the hdd): the DAM
	// and PDAM parameters are both Lemma 1 readings of the affine fit.
	Serial bool `json:"serial"`
}

// Predict returns model's predicted cost (seconds) of one IO of size bytes
// issued while conc IOs compete for the device on average.
func (m Models) Predict(model Model, size int64, conc float64) float64 {
	return models[model].predict(m, size, conc)
}

// predictAffine returns the affine cost of one IO of size bytes
// (Definition 2: s + t·x; concurrency-blind, as in E8).
func predictAffine(m Models, size int64, _ float64) float64 {
	return m.Affine.Cost(float64(size))
}

// predictDAM returns the DAM cost of one IO of size bytes issued while
// conc IOs compete for the device on average: the DAM serves one block at
// a time, so the IO's ceil(size/B) blocks wait behind the competing load —
// cost = UnitCost · blocks · conc (E7's t1·p line; on a serial device with
// conc = 1 this is exactly E8's Lemma 1 estimate).
func predictDAM(m Models, size int64, conc float64) float64 {
	if conc < 1 {
		conc = 1
	}
	return m.DAM.Cost(ceilDiv(size, m.DAM.BlockBytes) * conc)
}

// predictPDAM returns the PDAM cost of one IO of size bytes at average
// offered concurrency conc. Below the knee the device serves every
// outstanding block each step, so the IO is latency-bound at one step per
// block; past the knee (conc > P) it queues by conc/P — this is
// core.PDAM.PDAMReadSeconds with fractional p. The prediction is floored
// by the bandwidth bound blocks·conc·B/∝PB, the Table 1 saturation line
// (E7 predicts max(t1, p·volume/∝PB) the same way).
func predictPDAM(m Models, size int64, conc float64) float64 {
	if conc < 1 {
		conc = 1
	}
	blocks := ceilDiv(size, m.PDAM.BlockBytes)
	lat := blocks * m.PDAM.StepSeconds
	if f := conc / float64(m.PDAM.P); f > 1 {
		lat *= f
	}
	if m.SatBytesPerSec > 0 {
		if bw := blocks * conc * m.PDAM.BlockBytes / m.SatBytesPerSec; bw > lat {
			return bw
		}
	}
	return lat
}

// predictMQ returns the multi-queue cost of one IO of size bytes at average
// offered concurrency conc. The conc competing IOs spread over at most
// Queues queues, so the effective service rate is a·QueueSlots(a) for
// a = min(ceil(conc), Queues) — the depth- and interference-capped
// parallelism, not the raw slot count the PDAM reading uses. Below that
// rate the IO is latency-bound at one step per block; above it, it queues
// by conc over the rate, floored by the effective bandwidth bound. With one
// queue this is exactly predictPDAM.
func predictMQ(m Models, size int64, conc float64) float64 {
	if conc < 1 {
		conc = 1
	}
	active := int(math.Ceil(conc))
	if active > m.MQ.Queues {
		active = m.MQ.Queues
	}
	if active < 1 {
		active = 1
	}
	peff := float64(active * m.MQ.QueueSlots(active))
	blocks := ceilDiv(size, m.MQ.BlockBytes)
	lat := blocks * m.MQ.StepSeconds
	if f := conc / peff; f > 1 {
		lat *= f
	}
	if sat := peff * m.MQ.BlockBytes / m.MQ.StepSeconds; sat > 0 {
		if bw := blocks * conc * m.MQ.BlockBytes / sat; bw > lat {
			return bw
		}
	}
	return lat
}

func ceilDiv(size int64, block float64) float64 {
	if block <= 0 {
		return 1
	}
	n := math.Ceil(float64(size) / block)
	if n < 1 {
		n = 1
	}
	return n
}

// residual histograms record |predicted − measured| / measured scaled to
// parts-per-million, so stats.LatencyHist's ~3% log-bucket resolution
// applies to the ratio itself.
const residualScale = 1e6

// spanClass splits residuals by path: read-only spans validate the paper's
// read-centric claims; anything that wrote (mutations, commits,
// checkpoints) is classed separately.
type spanClass int

const (
	classRead spanClass = iota
	classWrite
	numClasses
)

func (c spanClass) String() string {
	if c == classRead {
		return "read"
	}
	return "write"
}

// accountant holds the per-model residual histograms. All recording goes
// through the tracer's mutex, but the histograms themselves are atomic, so
// summary() can run against concurrent Finishes.
type accountant struct {
	models Models
	resid  [len(models)][numClasses]*stats.LatencyHist
}

func newAccountant(m Models) *accountant {
	a := &accountant{models: m}
	for i := range a.resid {
		for j := range a.resid[i] {
			a.resid[i][j] = stats.NewLatencyHist()
		}
	}
	return a
}

// observe folds one finished span into the residual histograms. Spans with
// no device IO (fully cached operations) predict and measure zero under
// every model and are skipped.
func (a *accountant) observe(sp *Span, conc float64) {
	measured := sp.IOTime().Seconds()
	if measured <= 0 {
		return
	}
	class := classRead
	if sp.hasWrite() {
		class = classWrite
	}
	var pred [len(models)]float64
	for _, ev := range sp.Events {
		if ev.Kind != EvIO {
			continue
		}
		for m, row := range models {
			pred[m] += row.predict(a.models, ev.Size, conc)
		}
	}
	for m := range models {
		rel := math.Abs(pred[m]-measured) / measured
		a.resid[m][class].Observe(int64(rel * residualScale))
	}
}

// ResidualSummary is one model's residual distribution for one op class.
// Quantiles and mean are relative errors (0.25 = 25%).
type ResidualSummary struct {
	Model string  `json:"model"`
	Class string  `json:"class"`
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
}

func (a *accountant) summary() []ResidualSummary {
	var out []ResidualSummary
	for m, row := range models {
		for c := spanClass(0); c < numClasses; c++ {
			h := a.resid[m][c]
			n := h.Count()
			if n == 0 {
				continue
			}
			snap := h.Snapshot()
			out = append(out, ResidualSummary{
				Model: row.name,
				Class: c.String(),
				Count: n,
				P50:   float64(h.Quantile(0.50)) / residualScale,
				P90:   float64(h.Quantile(0.90)) / residualScale,
				Mean:  snap.Mean / residualScale,
				Max:   float64(snap.Max) / residualScale,
			})
		}
	}
	return out
}

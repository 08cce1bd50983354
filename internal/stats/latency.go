// LatencyHist: a goroutine-safe, mergeable, log-bucketed histogram for
// latency measurements. The server's metrics layer and cmd/loadgen both
// record into these concurrently and merge per-connection histograms into a
// run total, so the operations are atomic and lock-free.
package stats

import (
	"math/bits"
	"sync/atomic"
)

// latency histogram shape: buckets are log-linear — each power of two is
// split into 2^latencySubBits sub-buckets, so the relative quantile error is
// bounded by 2^-latencySubBits (~3% at 5 bits) while small values (below
// 2^latencySubBits) are exact.
const (
	latencySubBits = 5
	latencySub     = 1 << latencySubBits
	// 64 powers of two × latencySub sub-buckets covers the full int64 range.
	latencyBuckets = 64 * latencySub
)

// LatencyHist is a log-bucketed histogram of non-negative int64 samples
// (nanoseconds, virtual-time ticks — any unit). The zero value is NOT ready;
// use NewLatencyHist. All methods are safe for concurrent use.
type LatencyHist struct {
	counts []atomic.Int64
	sum    atomic.Int64 // exact running sum for Mean
	max    atomic.Int64 // high-water
}

// NewLatencyHist returns an empty histogram.
func NewLatencyHist() *LatencyHist {
	return &LatencyHist{counts: make([]atomic.Int64, latencyBuckets)}
}

// latencyBucket maps a sample to its bucket index.
func latencyBucket(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < latencySub {
		return int(v) // exact region
	}
	exp := 63 - bits.LeadingZeros64(uint64(v)) // position of the top bit
	sub := (v >> (uint(exp) - latencySubBits)) & (latencySub - 1)
	return exp<<latencySubBits + int(sub)
}

// latencyBucketLow returns the smallest sample value mapping to bucket i —
// the conservative (never over-reporting) representative Quantile returns.
func latencyBucketLow(i int) int64 {
	exp := uint(i >> latencySubBits)
	sub := int64(i & (latencySub - 1))
	if exp < latencySubBits {
		// Covers the exact region (buckets [0, latencySub) map to
		// themselves) and the unused buckets below exp latencySubBits.
		return int64(i)
	}
	return (latencySub + sub) << (exp - latencySubBits)
}

// Observe records one sample.
func (h *LatencyHist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[latencyBucket(v)].Add(1)
	h.sum.Add(v)
	h.raiseMax(v)
}

// Merge folds o's samples into h (o is read atomically; both may keep
// receiving Observes, in which case the merge is a consistent-enough
// snapshot, the same guarantee Snapshot gives).
func (h *LatencyHist) Merge(o *LatencyHist) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.sum.Add(o.sum.Load())
	h.raiseMax(o.max.Load())
}

// raiseMax lifts the high-water mark to v if v is above it.
func (h *LatencyHist) raiseMax(v int64) {
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of samples recorded.
func (h *LatencyHist) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Mean returns the exact arithmetic mean (0 when empty).
func (h *LatencyHist) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns the q-quantile (0 <= q <= 1) as a bucket lower bound:
// within ~2^-latencySubBits relative error, never over-reporting. Returns 0
// when empty.
func (h *LatencyHist) Quantile(q float64) int64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(n-1))
	var seen int64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen > rank {
			return latencyBucketLow(i)
		}
	}
	return h.max.Load()
}

// Cumulative re-buckets the histogram onto the given ascending inclusive
// upper bounds, returning the cumulative count at or below each bound plus
// the total count and the exact running sum — the shape a Prometheus
// histogram exposition needs (`_bucket{le=...}`, `_count`, `_sum`; samples
// above the last bound appear only in the +Inf/total count). Each recorded
// sample is represented by its bucket's lower bound, consistent with
// Quantile's conservative never-over-reporting contract.
func (h *LatencyHist) Cumulative(bounds []int64) (counts []int64, total, sum int64) {
	counts = make([]int64, len(bounds))
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		total += c
		v := latencyBucketLow(i)
		for j, b := range bounds {
			if v <= b {
				counts[j] += c
				break
			}
		}
	}
	for j := 1; j < len(counts); j++ {
		counts[j] += counts[j-1]
	}
	return counts, total, h.sum.Load()
}

// LatencySnapshot is a point-in-time summary of a LatencyHist.
type LatencySnapshot struct {
	Count int64
	Mean  float64
	P50   int64
	P95   int64
	P99   int64
	Max   int64
}

// Snapshot summarizes the histogram. Concurrent Observes may or may not be
// included; the snapshot is internally consistent to within those races.
func (h *LatencyHist) Snapshot() LatencySnapshot {
	return LatencySnapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.max.Load(),
	}
}

// LatencyMicros is a LatencySnapshot of nanosecond samples rendered in
// microseconds: the one JSON shape of a latency summary (/stats' per-op and
// gate-wait entries, loadgen's -bench-json).
type LatencyMicros struct {
	Count  int64   `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P95Us  float64 `json:"p95_us"`
	P99Us  float64 `json:"p99_us"`
	MaxUs  float64 `json:"max_us"`
}

// Micros converts a snapshot of nanosecond samples to microseconds.
func (s LatencySnapshot) Micros() LatencyMicros {
	return LatencyMicros{
		Count:  s.Count,
		MeanUs: s.Mean / 1e3,
		P50Us:  float64(s.P50) / 1e3,
		P95Us:  float64(s.P95) / 1e3,
		P99Us:  float64(s.P99) / 1e3,
		MaxUs:  float64(s.Max) / 1e3,
	}
}

// Package stats provides small statistical helpers shared by the device
// simulators, the regression package, and the experiment harnesses:
// deterministic random number generation, summary statistics, and (latency.go)
// mergeable latency histograms.
//
// Everything in this package is deterministic given its inputs; the
// experiment harnesses rely on that to produce byte-identical tables across
// runs.
package stats

import (
	"math"
	"sort"
)

// RNG is a small, fast, deterministic pseudo-random number generator
// (xorshift64*). It is NOT safe for concurrent use; give each simulated
// process its own RNG (use Split).
//
// We deliberately avoid math/rand so that results are stable across Go
// releases and so that the zero-seed case is well defined.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant (xorshift has an all-zero fixed point).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Split derives an independent generator from r, keyed by id. Two Splits of
// the same RNG with different ids produce uncorrelated streams, and calling
// Split does not perturb r's own stream.
func (r *RNG) Split(id uint64) *RNG {
	// SplitMix64 of (state ^ golden*id); does not advance r.
	z := r.state ^ (0x9E3779B97F4A7C15 * (id + 1))
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return NewRNG(z)
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n)) // negligible modulo bias for our n
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int { return int(r.Int63n(int64(n))) }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf draws from a Zipf-like distribution over [0, n) with exponent theta
// in (0, 1), using the classic Gray et al. quick-and-dirty method. Larger
// theta skews more heavily toward small ranks.
type Zipf struct {
	n      int64
	theta  float64
	alpha  float64
	zetan  float64
	eta    float64
	zeta2  float64
	halfPn float64
}

// NewZipf builds a Zipf sampler over [0, n) with skew theta in (0, 1).
func NewZipf(n int64, theta float64) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf with non-positive n")
	}
	if theta <= 0 || theta >= 1 {
		panic("stats: NewZipf theta must be in (0,1)")
	}
	z := &Zipf{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	z.halfPn = 1 + math.Pow(0.5, theta)
	return z
}

func zeta(n int64, theta float64) float64 {
	// For large n this is slow; cap the exact sum and extend with the
	// integral approximation, which is accurate for the tail.
	const exact = 1 << 20
	var sum float64
	m := n
	if m > exact {
		m = exact
	}
	for i := int64(1); i <= m; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	if n > m {
		// ∫_m^n x^-theta dx
		sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(m), 1-theta)) / (1 - theta)
	}
	return sum
}

// Next draws the next sample in [0, n).
func (z *Zipf) Next(r *RNG) int64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPn {
		return 1
	}
	return int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// Summary holds standard summary statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation
	Min    float64
	Max    float64
	Median float64
	P95    float64
	P99    float64
}

// Summarize computes summary statistics. It returns the zero Summary for an
// empty sample.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.Median = Quantile(sorted, 0.5)
	s.P95 = Quantile(sorted, 0.95)
	s.P99 = Quantile(sorted, 0.99)
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range sorted {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample using linear interpolation. It panics on an empty sample.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

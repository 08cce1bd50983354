// Replication-lag estimator: a replica (or a primary observing its
// replicas) feeds it one sample per ship pull — how far behind the
// primary's durable position the replica's applied position is, in both
// LSNs (positional lag) and seconds (temporal lag, from the commit
// wall-time stamped on shipped records). The estimator keeps an EWMA for
// the steady-state view and a windowed max for the "how bad does it get"
// view; both are cheap enough to update on every pull.
package obs

import "sync"

// DefaultLagWindow is how many recent samples the windowed max covers.
const DefaultLagWindow = 256

// defaultLagAlpha is the EWMA smoothing factor: ~1/16 weight per sample,
// so the average settles over a few dozen pulls.
const defaultLagAlpha = 1.0 / 16

// LagEstimator tracks replication lag. The zero value is not ready; use
// NewLagEstimator. A nil estimator ignores observations and snapshots to
// zero, so wiring can be unconditional.
type LagEstimator struct {
	mu    sync.Mutex
	alpha float64

	samples  int64
	lastSec  float64
	ewmaSec  float64
	lastLSNs int64
	ewmaLSNs float64

	winSec  []float64
	winLSNs []int64
	wpos    int
	wlen    int
}

// NewLagEstimator builds an estimator with the given max window (samples;
// DefaultLagWindow if <= 0).
func NewLagEstimator(window int) *LagEstimator {
	if window <= 0 {
		window = DefaultLagWindow
	}
	return &LagEstimator{
		alpha:   defaultLagAlpha,
		winSec:  make([]float64, window),
		winLSNs: make([]int64, window),
	}
}

// Observe records one lag sample. Negative inputs (clock skew, a racing
// promote) clamp to zero. Nil-safe.
func (le *LagEstimator) Observe(lagSeconds float64, lagLSNs int64) {
	if le == nil {
		return
	}
	if lagSeconds < 0 {
		lagSeconds = 0
	}
	if lagLSNs < 0 {
		lagLSNs = 0
	}
	le.mu.Lock()
	defer le.mu.Unlock()
	le.samples++
	le.lastSec = lagSeconds
	le.lastLSNs = lagLSNs
	if le.samples == 1 {
		le.ewmaSec = lagSeconds
		le.ewmaLSNs = float64(lagLSNs)
	} else {
		le.ewmaSec += le.alpha * (lagSeconds - le.ewmaSec)
		le.ewmaLSNs += le.alpha * (float64(lagLSNs) - le.ewmaLSNs)
	}
	le.winSec[le.wpos] = lagSeconds
	le.winLSNs[le.wpos] = lagLSNs
	le.wpos = (le.wpos + 1) % len(le.winSec)
	if le.wlen < len(le.winSec) {
		le.wlen++
	}
}

// LagSnapshot is a point-in-time view of the estimator, JSON-ready for the
// server's /stats document. Samples' tags declare its /metrics family; the
// other fields render as the server's labelled ship_lag families.
type LagSnapshot struct {
	Samples     int64   `json:"samples" prom:"ship_lag_samples_total,counter" help:"Replication-lag samples observed."`
	LastSeconds float64 `json:"last_seconds" prom:"-"`
	EWMASeconds float64 `json:"ewma_seconds" prom:"-"`
	MaxSeconds  float64 `json:"max_seconds" prom:"-"` // over the sample window
	LastLSNs    int64   `json:"last_lsns" prom:"-"`
	EWMALSNs    float64 `json:"ewma_lsns" prom:"-"`
	MaxLSNs     int64   `json:"max_lsns" prom:"-"` // over the sample window
}

// Snapshot returns the current view. Nil-safe (zero snapshot).
func (le *LagEstimator) Snapshot() LagSnapshot {
	if le == nil {
		return LagSnapshot{}
	}
	le.mu.Lock()
	defer le.mu.Unlock()
	s := LagSnapshot{
		Samples:     le.samples,
		LastSeconds: le.lastSec,
		EWMASeconds: le.ewmaSec,
		LastLSNs:    le.lastLSNs,
		EWMALSNs:    le.ewmaLSNs,
	}
	for i := 0; i < le.wlen; i++ {
		if le.winSec[i] > s.MaxSeconds {
			s.MaxSeconds = le.winSec[i]
		}
		if le.winLSNs[i] > s.MaxLSNs {
			s.MaxLSNs = le.winLSNs[i]
		}
	}
	return s
}

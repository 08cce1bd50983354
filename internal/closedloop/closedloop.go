// Package closedloop drives k closed-loop clients, the concurrency shape of
// the paper's Lemma 13: each client issues one operation, waits for its
// reply, and issues the next. cmd/loadgen and the serving experiments (E20,
// E22–E24) drive their clients here and nowhere else.
//
// A client population is dialed whole before any client runs (Dial), then
// driven (Run). A server.ErrBusy reply is the one error a client survives:
// the same operation is retried after the one busy backoff (Backoff), and
// the retry is counted as shed.
package closedloop

import (
	"errors"
	"sync"
	"time"

	"iomodels/internal/server"
	"iomodels/internal/stats"
)

// The busy backoff's bounds: a shed request is never retried in a hot spin,
// since a saturated server answering StatusBusy in microseconds would burn
// both sides' CPU on refusals.
const (
	MinBackoff = 200 * time.Microsecond
	MaxBackoff = 50 * time.Millisecond
)

// Backoff returns the busy backoff that follows d (0 starts it): MinBackoff,
// doubling on each busy reply in a row, capped at MaxBackoff.
func Backoff(d time.Duration) time.Duration {
	return min(max(2*d, MinBackoff), MaxBackoff)
}

// Busy reports whether err is a shed request, which Run retries.
func Busy(err error) bool { return errors.Is(err, server.ErrBusy) }

// Clients is a dialed client population: Conns[i] is client i.
type Clients[C any] struct {
	Conns   []C
	closers []func()
}

// Dial opens k clients, client i by dial(i), called in order from the
// caller's goroutine, before any of them runs: a server gives a connection
// its virtual cursor when it accepts it, so a closed loop's whole population
// is in place before its first request moves the clock mark. If a dial
// fails, the clients already open are closed.
func Dial[C any](k int, dial func(i int) (C, func(), error)) (*Clients[C], error) {
	cs := &Clients[C]{Conns: make([]C, 0, k)}
	for i := 0; i < k; i++ {
		c, closer, err := dial(i)
		if err != nil {
			cs.Close()
			return nil, err
		}
		cs.Conns = append(cs.Conns, c)
		cs.closers = append(cs.closers, closer)
	}
	return cs, nil
}

// Close closes every client.
func (cs *Clients[C]) Close() {
	for _, closer := range cs.closers {
		closer()
	}
}

// Result is what Run measured: the wall latency of each class's completed
// operations, and the busy replies that were retried.
type Result struct {
	Hists []*stats.LatencyHist // indexed by the class op returned
	Shed  int64
}

// Hist is the latency of class's completed operations.
func (r Result) Hist(class int) *stats.LatencyHist {
	if class < len(r.Hists) {
		return r.Hists[class]
	}
	return stats.NewLatencyHist()
}

// Run drives every client from a goroutine of its own: client i calls
// op(Conns[i], i, j) for j = 0, 1, … n-1, or with n < 0 until stop is
// closed. Each completed call is timed into the histogram of the class it
// returns. A busy reply retries the same j after the busy backoff, with
// jitter from the client's own RNG, which decorrelates the retries of
// clients shed by the same full queue; any other error stops that client.
// Run returns once every client has stopped, with the first error a client
// stopped at.
func (cs *Clients[C]) Run(n int, stop <-chan struct{}, op func(c C, i, j int) (class int, err error)) (Result, error) {
	var (
		mu    sync.Mutex
		res   Result
		first error
		wg    sync.WaitGroup
	)
	for i, c := range cs.Conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hists, shed, err := drive(c, i, n, stop, op)
			mu.Lock()
			defer mu.Unlock()
			// Merge the classes both have seen; adopt the others.
			seen := min(len(res.Hists), len(hists))
			for class, h := range hists[:seen] {
				res.Hists[class].Merge(h)
			}
			res.Hists = append(res.Hists, hists[seen:]...)
			res.Shed += shed
			if first == nil {
				first = err
			}
		}()
	}
	wg.Wait()
	return res, first
}

// drive is client i's loop.
func drive[C any](c C, i, n int, stop <-chan struct{}, op func(c C, i, j int) (int, error)) (hists []*stats.LatencyHist, shed int64, err error) {
	jitter := stats.NewRNG(0).Split(uint64(i))
	var backoff time.Duration
	for j := 0; j != n; {
		select {
		case <-stop: // never ready when stop is nil
			return hists, shed, nil
		default:
		}
		t0 := time.Now()
		class, err := op(c, i, j)
		wall := time.Since(t0)
		if Busy(err) {
			shed++
			backoff = Backoff(backoff)
			time.Sleep(backoff/2 + time.Duration(jitter.Int63n(int64(backoff)/2+1)))
			continue
		}
		if err != nil {
			return hists, shed, err
		}
		for len(hists) <= class {
			hists = append(hists, stats.NewLatencyHist())
		}
		hists[class].Observe(int64(wall))
		backoff = 0
		j++
	}
	return hists, shed, nil
}

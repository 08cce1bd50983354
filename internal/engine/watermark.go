package engine

import (
	"sync"
	"sync/atomic"
	"time"
)

// Watermark is a position that only rises, and that goroutines can wait on.
// The ship ring's committed LSN is one (a caught-up ship pull waits for the
// next commit) and a sync-ship primary's acknowledged LSN is another (a
// commit batch waits for a replica's pull to cover it). The zero value is a
// mark at 0.
type Watermark struct {
	v  atomic.Uint64
	mu sync.Mutex
	// wake is made by the first waiter that needs it and closed, then
	// cleared, by the next Advance: an Advance nobody waits on allocates
	// nothing.
	wake chan struct{}
}

// Load reads the mark.
func (w *Watermark) Load() uint64 { return w.v.Load() }

// Advance raises the mark to v (a lower v is ignored) and wakes every
// waiter.
func (w *Watermark) Advance(v uint64) {
	w.mu.Lock()
	if v > w.v.Load() {
		w.v.Store(v)
		if w.wake != nil {
			close(w.wake)
			w.wake = nil
		}
	}
	w.mu.Unlock()
}

// Wait blocks until the mark reaches v (true), or until timeout passes or
// stop closes (false). A nil stop never closes.
func (w *Watermark) Wait(v uint64, timeout time.Duration, stop <-chan struct{}) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		// Advance stores and wakes under mu, so a rise past v is either seen
		// here or closes the channel taken here.
		w.mu.Lock()
		if w.v.Load() >= v {
			w.mu.Unlock()
			return true
		}
		if w.wake == nil {
			w.wake = make(chan struct{})
		}
		wake := w.wake
		w.mu.Unlock()
		select {
		case <-wake:
		case <-timer.C:
			return false
		case <-stop:
			return false
		}
	}
}

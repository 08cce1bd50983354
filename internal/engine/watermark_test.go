package engine_test

import (
	"sync"
	"testing"
	"time"

	"iomodels/internal/engine"
)

func TestWatermark(t *testing.T) {
	var w engine.Watermark
	w.Advance(5)
	w.Advance(3)
	if got := w.Load(); got != 5 {
		t.Fatalf("Advance(3) after Advance(5): mark %d, want 5", got)
	}
	if !w.Wait(5, time.Hour, nil) {
		t.Fatal("Wait on a reached mark returned false")
	}

	// A waiter wakes when the mark reaches it.
	woke := make(chan bool, 1)
	go func() { woke <- w.Wait(7, time.Hour, nil) }()
	w.Advance(6)
	select {
	case <-woke:
		t.Fatal("Wait(7) returned at mark 6")
	case <-time.After(5 * time.Millisecond):
	}
	w.Advance(7)
	if !<-woke {
		t.Fatal("Wait(7) returned false at mark 7")
	}

	if w.Wait(8, 5*time.Millisecond, nil) {
		t.Fatal("Wait past the mark returned true on timeout")
	}
	stop := make(chan struct{})
	close(stop)
	if w.Wait(8, time.Hour, stop) {
		t.Fatal("Wait past the mark returned true on stop")
	}
}

// TestWatermarkConcurrentWaiters: waiters on every step of a mark raised
// one step at a time all wake, whatever the interleaving.
func TestWatermarkConcurrentWaiters(t *testing.T) {
	var w engine.Watermark
	const n = 16
	var wg sync.WaitGroup
	missed := make(chan uint64, n)
	for v := uint64(1); v <= n; v++ {
		wg.Add(1)
		go func(v uint64) {
			defer wg.Done()
			if !w.Wait(v, 10*time.Second, nil) {
				missed <- v
			}
		}(v)
	}
	for v := uint64(1); v <= n; v++ {
		w.Advance(v)
	}
	wg.Wait()
	close(missed)
	for v := range missed {
		t.Errorf("Wait(%d) timed out with the mark at %d", v, w.Load())
	}
}

// TestWatermarkAdvanceAllocatesNothing: a ship ring nobody pulls from
// advances its mark on every commit, and must not allocate for it.
func TestWatermarkAdvanceAllocatesNothing(t *testing.T) {
	var w engine.Watermark
	var v uint64
	if allocs := testing.AllocsPerRun(1000, func() { v++; w.Advance(v) }); allocs != 0 {
		t.Fatalf("Advance with no waiter allocates %.1f times", allocs)
	}
}

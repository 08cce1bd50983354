package storage

import (
	"sync"
	"testing"

	"iomodels/internal/sim"
)

// TestTraceConcurrentAdd is a race regression for the trace: writers add
// records while another goroutine snapshots and reads the length. The
// conservation invariant must hold throughout — every added record is
// retained, never lost or double-counted, and a snapshot never sees more
// than has been added.
func TestTraceConcurrentAdd(t *testing.T) {
	const writers, perWriter = 8, 500
	const total = writers * perWriter
	tr := NewTrace()
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for last := 0; ; {
			select {
			case <-stop:
				return
			default:
			}
			n := len(tr.Snapshot())
			if n < last || n > total {
				t.Errorf("Snapshot() returned %d records after %d, want %d..%d", n, last, last, total)
				return
			}
			last = n
			if l := tr.Len(); l < n {
				t.Errorf("Len() = %d after a snapshot of %d", l, n)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.add(TraceRecord{
					At: sim.Time(w*perWriter + i), Op: Read,
					Off: int64(i) * 4096, Size: 4096, Latency: sim.Millisecond,
				})
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	if got := tr.Len(); got != total {
		t.Fatalf("Len() = %d, want %d (records lost or double-counted)", got, total)
	}
	seen := make(map[sim.Time]bool, total)
	for _, r := range tr.Snapshot() {
		if seen[r.At] {
			t.Fatalf("record %v retained twice", r.At)
		}
		seen[r.At] = true
	}
	if len(seen) != total {
		t.Fatalf("Snapshot() holds %d distinct records, want %d", len(seen), total)
	}
}

// A blocking send that is the last statement before the Unlock: the
// diagnostic fires on the send, not on the Unlock after it.
package blockfixdata

import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
	n  int
}

func (s *S) notify() {
	s.mu.Lock()
	s.n++
	s.ch <- 1 // want `blocking channel send while holding mu`
	s.mu.Unlock()
}

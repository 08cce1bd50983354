// Package lockorderdep models a lower-layer package whose mutex ranks and
// function summaries reach dependents as object facts.
package lockorderdep

import "sync"

type Store struct {
	mu sync.Mutex //lint:lockrank 10 storage lock; outermost of all
	n  int
}

// Bump acquires the rank-10 lock; dependents calling it while holding a
// higher rank must be flagged.
func (s *Store) Bump() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

// Queue's lock ranks 20; Publish takes it, then sends outside it, so its
// summary both acquires rank 20 and may block.
type Queue struct {
	qmu sync.Mutex //lint:lockrank 20 queue lock
	ch  chan int
	n   int
}

func (q *Queue) Publish(v int) {
	q.qmu.Lock()
	q.n++
	q.qmu.Unlock()
	q.ch <- v
}

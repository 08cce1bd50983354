package server

import (
	"reflect"
	"slices"
	"testing"

	"iomodels/internal/engine"
	"iomodels/internal/sim"
	"iomodels/internal/stats"
)

// The scheduler is a function of the cursors and ends it is handed, so
// nothing below sleeps or reads the wall clock.

// isLaunched reports whether a ticket has its start instant: admit found a
// slot, or the releasing read has closed its channel since.
func isLaunched(t *ticket) bool {
	if t.launched == nil {
		return true
	}
	select {
	case <-t.launched:
		return true
	default:
		return false
	}
}

// queued is the expected start of an admit that must wait for a slot.
const queued = sim.Time(-1)

// schedEvent is one scripted call on one lane-0 scheduler: conn admits a
// read at its cursor and expects to start at want (or to queue), or finishes
// its read at an end; a done that releases a slot to a waiting connection
// names it and the start it must inherit.
type schedEvent struct {
	conn      int
	done      bool
	at        sim.Time // admit: the connection's cursor; done: the read's end
	want      sim.Time // admit: the start instant, or queued
	hands     int      // done: the waiting connection launched by it, or -1
	handStart sim.Time
}

func admitAt(conn int, cursor, want sim.Time) schedEvent {
	return schedEvent{conn: conn, at: cursor, want: want}
}
func doneAt(conn int, end sim.Time) schedEvent {
	return schedEvent{conn: conn, done: true, at: end, hands: -1}
}
func doneHands(conn int, end sim.Time, to int, start sim.Time) schedEvent {
	return schedEvent{conn: conn, done: true, at: end, hands: to, handStart: start}
}

// TestSchedulerSlotSemantics scripts admit/done calls against one lane and
// checks every start instant.
func TestSchedulerSlotSemantics(t *testing.T) {
	cases := []struct {
		name   string
		size   int
		script []schedEvent
	}{
		{"size 1 is the DAM: every start at or after the previous end", 1, []schedEvent{
			admitAt(0, 0, 0),
			admitAt(1, 0, queued),
			doneHands(0, 100, 1, 100),
			admitAt(0, 100, queued),
			doneHands(1, 250, 0, 250),
			doneAt(0, 300),
			admitAt(1, 260, 300), // the one slot has been free only since 300
			doneAt(1, 300),       // a hit: no virtual time
			admitAt(0, 900, 900),
		}},
		{"k <= size: every connection starts exactly at its own cursor", 4, []schedEvent{
			admitAt(0, 0, 0), admitAt(1, 500, 500), admitAt(2, 90, 90),
			doneAt(1, 700), doneAt(0, 40), doneAt(2, 95),
			admitAt(2, 95, 95), admitAt(0, 60, 60), admitAt(1, 700, 700),
			doneAt(0, 61), admitAt(0, 61, 61), doneAt(0, 62),
			doneAt(2, 400), doneAt(1, 2000),
			admitAt(0, 62, 62), admitAt(1, 2000, 2000), admitAt(2, 400, 400),
		}},
		// The trace that cost the prototype a third of its slot utilisation:
		// popping the earliest-freed slot hands the leader (cursor 1000) the
		// slot the laggard (cursor 100) left, and the laggard is then dragged
		// to 1000 on the leader's.
		{"best fit: the leader takes the latest slot that does not delay it", 2, []schedEvent{
			admitAt(0, 0, 0), admitAt(1, 0, 0),
			doneAt(1, 100), doneAt(0, 1000),
			admitAt(0, 1000, 1000),
			admitAt(1, 100, 100),
		}},
		{"no slot fits: the earliest-freed delays the read least", 2, []schedEvent{
			admitAt(0, 0, 0), admitAt(1, 0, 0),
			doneAt(1, 1000), doneAt(0, 100),
			admitAt(2, 50, 100),
			admitAt(3, 50, 1000),
		}},
		{"all slots held: FIFO hand-off at the releaser's end", 2, []schedEvent{
			admitAt(0, 0, 0), admitAt(1, 10, 10),
			admitAt(2, 0, queued), admitAt(3, 700, queued),
			doneHands(0, 300, 2, 300), // the longest waiter inherits the end...
			doneHands(1, 500, 3, 700), // ...unless its own cursor is later
			doneAt(2, 350), doneAt(3, 800),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newReadScheduler(engine.NewSharedClock(), 1, tc.size, 64)
			held := make(map[int]*ticket)
			waiting := make(map[int]bool)
			for i, ev := range tc.script {
				if !ev.done {
					tk, ok := s.admit(0, ev.at)
					if !ok {
						t.Fatalf("event %d: conn %d refused", i, ev.conn)
					}
					held[ev.conn] = tk
					switch {
					case ev.want == queued && isLaunched(tk):
						t.Fatalf("event %d: conn %d started at %v with every slot held", i, ev.conn, tk.start)
					case ev.want == queued:
						waiting[ev.conn] = true
					case !isLaunched(tk):
						t.Fatalf("event %d: conn %d queued behind an idle slot", i, ev.conn)
					case tk.start != ev.want:
						t.Fatalf("event %d: conn %d starts at %v, want %v", i, ev.conn, tk.start, ev.want)
					}
					continue
				}
				s.done(held[ev.conn], ev.at)
				delete(held, ev.conn)
				if ev.hands >= 0 && !waiting[ev.hands] {
					t.Fatalf("event %d: script hands a slot to conn %d, which is not waiting", i, ev.hands)
				}
				for conn := range waiting {
					tk := held[conn]
					switch {
					case conn != ev.hands && isLaunched(tk):
						t.Fatalf("event %d: conn %d launched out of FIFO order by conn %d's done", i, conn, ev.conn)
					case conn == ev.hands && (!isLaunched(tk) || tk.start != ev.handStart):
						t.Fatalf("event %d: conn %d launched=%v start=%v after conn %d's done, want start %v",
							i, conn, isLaunched(tk), tk.start, ev.conn, ev.handStart)
					case conn == ev.hands:
						delete(waiting, conn)
					}
				}
			}
		})
	}
}

// TestSchedulerAdmissionControl: queued+running reads beyond maxQueue are
// refused, a release hands over in arrival order, and a drained scheduler
// admits again.
func TestSchedulerAdmissionControl(t *testing.T) {
	clock := engine.NewSharedClock()
	s := newReadScheduler(clock, 1, 2, 4)

	var held []*ticket
	for i := 0; i < 4; i++ {
		tk, ok := s.admit(0, 0)
		if !ok {
			t.Fatalf("admit %d refused below maxQueue", i)
		}
		if isLaunched(tk) != (i < 2) {
			t.Fatalf("admit %d launched=%v with 2 slots", i, isLaunched(tk))
		}
		held = append(held, tk)
	}
	if _, ok := s.admit(0, 0); ok {
		t.Fatal("admitted beyond maxQueue")
	}

	s.done(held[0], 100)
	if clock.Now() != 100 {
		t.Fatalf("clock = %v, want the finished read's end (100)", clock.Now())
	}
	if !isLaunched(held[2]) || held[2].start != 100 || isLaunched(held[3]) {
		t.Fatalf("after one release: third launched=%v start=%v, fourth launched=%v; want the third alone, at 100",
			isLaunched(held[2]), held[2].start, isLaunched(held[3]))
	}
	s.done(held[1], 150)
	if !isLaunched(held[3]) || held[3].start != 150 {
		t.Fatalf("fourth launched=%v start=%v, want launched at 150", isLaunched(held[3]), held[3].start)
	}
	s.done(held[2], 220)
	s.done(held[3], 300)
	if q, _ := s.snapshot(); q != 0 {
		t.Fatalf("%d reads still counted after all finished", q)
	}
	if clock.Now() != 300 {
		t.Fatalf("clock = %v, want 300", clock.Now())
	}
	if tk, ok := s.admit(0, 0); !ok || !isLaunched(tk) {
		t.Fatal("admit refused or queued after the scheduler drained")
	}
}

// TestSchedulerIdleLaneLaunchesSynchronously: an idle server answers a lone
// read with nothing parked on anything but the socket — admit on an idle
// lane returns a ticket that already has its start instant, the connection's
// own cursor, and no channel to wait on.
func TestSchedulerIdleLaneLaunchesSynchronously(t *testing.T) {
	clock := engine.NewSharedClock()
	clock.Observe(7 * sim.Millisecond)
	s := newReadScheduler(clock, 1, 8, 32)
	for i, cursor := range []sim.Time{7 * sim.Millisecond, 3 * sim.Millisecond, 9 * sim.Millisecond} {
		tk, ok := s.admit(0, cursor)
		if !ok {
			t.Fatal("admit refused")
		}
		if tk.launched != nil {
			t.Fatalf("read %d on an idle lane was given a channel to wait on", i)
		}
		if tk.start != cursor {
			t.Fatalf("read %d starts at %v, want its cursor %v", i, tk.start, cursor)
		}
		s.done(tk, cursor+sim.Millisecond)
	}
	if clock.Now() != 10*sim.Millisecond {
		t.Fatalf("clock = %v after done, want the latest end (10ms)", clock.Now())
	}
}

// TestSchedulerOrderIndependent is the determinism DESIGN.md §5 promises,
// at the scheduler: with k <= size closed-loop connections, the order in
// which the host happens to run their admit and done calls leaves every
// connection's sequence of start instants unchanged — each is the
// connection's own cursor.
func TestSchedulerOrderIndependent(t *testing.T) {
	const size, reads = 8, 50
	for _, k := range []int{1, 3, 8} {
		// Each connection's script: think time before read j (0 models a
		// run of cache hits, which leave the cursor where it was) and the
		// read's virtual service time.
		type op struct{ think, service sim.Time }
		script := stats.NewRNG(uint64(k))
		first := make([]sim.Time, k)
		ops := make([][]op, k)
		for c := range ops {
			first[c] = sim.Time(script.Intn(5000))
			for j := 0; j < reads; j++ {
				ops[c] = append(ops[c], op{sim.Time(script.Intn(3) * script.Intn(400)), sim.Time(script.Intn(4) * 100)})
			}
		}
		run := func(order uint64) [][]sim.Time {
			s := newReadScheduler(engine.NewSharedClock(), 1, size, 4*size)
			host := stats.NewRNG(order)
			starts := make([][]sim.Time, k)
			cursor := slices.Clone(first)
			running := make([]*ticket, k)
			for left := k * reads; left > 0; {
				c := host.Intn(k)
				j := len(starts[c])
				if tk := running[c]; tk != nil {
					cursor[c] = tk.start + ops[c][j-1].service
					s.done(tk, cursor[c])
					running[c] = nil
					left--
					continue
				}
				if j == reads {
					continue
				}
				cursor[c] += ops[c][j].think
				tk, ok := s.admit(0, cursor[c])
				if !ok || tk.launched != nil {
					t.Fatalf("k=%d order %d: conn %d read %d refused or queued with k <= size", k, order, c, j)
				}
				if tk.start != cursor[c] {
					t.Fatalf("k=%d order %d: conn %d read %d starts at %v, not its cursor %v", k, order, c, j, tk.start, cursor[c])
				}
				starts[c] = append(starts[c], tk.start)
				running[c] = tk
			}
			return starts
		}
		want := run(1)
		for order := uint64(2); order <= 40; order++ {
			if got := run(order); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d: host order %d changed the start instants", k, order)
			}
		}
	}
}

// TestSchedulerReadBatchesCount pins what read_batches means: one count per
// launch that found its lane empty or opened a later start instant than any
// read of the lane had. A lone client counts every read (fill 1/size — and
// never zero, even when every read is a hit); reads sharing an instant count
// once; a connection running behind the others does not count.
func TestSchedulerReadBatchesCount(t *testing.T) {
	batches := func(s *readScheduler) int64 { _, b := s.snapshot(); return b }

	lone := newReadScheduler(engine.NewSharedClock(), 1, 16, 64)
	for i := 0; i < 10; i++ {
		tk, _ := lone.admit(0, 500)
		lone.done(tk, 500) // ten hits: the cursor never moves
	}
	if got := batches(lone); got != 10 {
		t.Fatalf("lone client: %d batches for 10 reads, want 10", got)
	}

	s := newReadScheduler(engine.NewSharedClock(), 1, 4, 64)
	admit := func(cursor sim.Time, want int64) *ticket {
		t.Helper()
		tk, _ := s.admit(0, cursor)
		if got := batches(s); got != want {
			t.Fatalf("admit at %v: %d batches, want %d", cursor, got, want)
		}
		return tk
	}
	round := []*ticket{
		admit(100, 1), // the lane was empty
		admit(100, 1), // shares the instant
		admit(100, 1),
		admit(40, 1), // a laggard beside running reads opens nothing
	}
	for _, tk := range round {
		s.done(tk, tk.start+50)
	}
	admit(200, 2) // the lane was empty again
	admit(200, 2)
	admit(300, 3) // a later instant than any read of the lane had
}

// TestSchedulerLanesIndependent: a lane whose slots are all held, with reads
// queued behind them, must not stop another lane's read from starting (no
// cross-queue convoy), and a release hands over only within its own lane.
func TestSchedulerLanesIndependent(t *testing.T) {
	clock := engine.NewSharedClock()
	s := newReadScheduler(clock, 2, 1, 16)

	a1, ok := s.admit(0, 0)
	if !ok || !isLaunched(a1) {
		t.Fatal("lane 0's first read did not start")
	}
	a2, _ := s.admit(0, 0)
	if isLaunched(a2) {
		t.Fatal("lane 0's second read started with the lane's one slot held")
	}
	b1, ok := s.admit(1, 30)
	if !ok || !isLaunched(b1) || b1.start != 30 {
		t.Fatal("lane 1's read blocked or delayed by lane 0's backlog")
	}

	s.done(b1, 100)
	if clock.Now() != 100 {
		t.Fatalf("clock = %v, want 100", clock.Now())
	}
	if isLaunched(a2) {
		t.Fatal("lane 0's queued read launched by lane 1's completion")
	}
	s.done(a1, 250)
	if !isLaunched(a2) || a2.start != 250 {
		t.Fatalf("lane 0's queued read launched=%v start=%v, want launched at 250", isLaunched(a2), a2.start)
	}
	// Lane 1's slot has been free since 100, whatever lane 0 did meanwhile.
	if b2, _ := s.admit(1, 0); b2.start != 100 {
		t.Fatalf("lane 1's next read starts at %v, want 100", b2.start)
	}
}

// TestSchedulerLaneAffinity: laneOf is deterministic per key and spreads
// distinct keys across lanes.
func TestSchedulerLaneAffinity(t *testing.T) {
	clock := engine.NewSharedClock()
	s := newReadScheduler(clock, 4, 2, 32)
	seen := make(map[int]bool)
	for i := 0; i < 64; i++ {
		key := []byte{byte(i), byte(i >> 4), 'k'}
		lane := s.laneOf(key)
		if lane < 0 || lane >= 4 {
			t.Fatalf("lane %d out of range", lane)
		}
		if again := s.laneOf(key); again != lane {
			t.Fatalf("laneOf not deterministic: %d then %d", lane, again)
		}
		seen[lane] = true
	}
	if len(seen) != 4 {
		t.Fatalf("64 keys hit only %d of 4 lanes", len(seen))
	}
	// The single-lane scheduler maps every key to lane 0.
	if one := newReadScheduler(clock, 1, 2, 8); one.laneOf([]byte("anything")) != 0 {
		t.Fatal("single-lane scheduler routed off lane 0")
	}
}

// TestSchedulerLaneAdmissionShared: maxQueue is a shared bound across
// lanes.
func TestSchedulerLaneAdmissionShared(t *testing.T) {
	clock := engine.NewSharedClock()
	s := newReadScheduler(clock, 2, 1, 2)
	if _, ok := s.admit(0, 0); !ok {
		t.Fatal("first admit refused")
	}
	if _, ok := s.admit(1, 0); !ok {
		t.Fatal("second admit refused")
	}
	if _, ok := s.admit(1, 0); ok {
		t.Fatal("admitted beyond the shared maxQueue")
	}
}

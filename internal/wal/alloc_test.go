package wal

import "testing"

// discardDev moves no bytes and allocates nothing, so what a run allocates
// is the log's own doing.
type discardDev struct{}

func (discardDev) ReadAt([]byte, int64)  {}
func (discardDev) WriteAt([]byte, int64) {}

// newDiscardLog returns a log that never fills, with or without a commit hook.
func newDiscardLog(tb testing.TB, hook bool) *Log {
	tb.Helper()
	l, err := New(Config{Capacity: 1 << 50, GroupBytes: 1 << 20}, discardDev{})
	if err != nil {
		tb.Fatal(err)
	}
	if hook {
		l.SetOnCommit(func([]Record) {})
	}
	return l
}

// appendGroup appends n copies of r and commits them as one group.
func appendGroup(tb testing.TB, l *Log, r Record, n int) {
	for i := 0; i < n; i++ {
		if _, err := l.Append(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		tb.Fatal(err)
	}
}

// TestAppendCommitAllocs bounds the commit path's allocations in steady
// state: none without a hook; with one, the single payload slab the hook's
// receiver takes ownership of — per group, whatever the group's size.
func TestAppendCommitAllocs(t *testing.T) {
	r := rec(1)
	for _, hook := range []bool{false, true} {
		l := newDiscardLog(t, hook)
		appendGroup(t, l, r, 64) // grow buf, frame and the ship tail to size
		want := 0.0
		if hook {
			want = 1
		}
		for _, n := range []int{1, 64} {
			if got := testing.AllocsPerRun(100, func() { appendGroup(t, l, r, n) }); got > want {
				t.Errorf("hook=%v: a group of %d records allocates %.0f times, want at most %.0f", hook, n, got, want)
			}
		}
	}
}

// BenchmarkWALAppend times Append with a group commit every 8 records (the
// size the 16-client durable benchmark workload settles on), with the
// shipping hook attached and without.
func BenchmarkWALAppend(b *testing.B) {
	for _, hook := range []bool{true, false} {
		name := "nohook"
		if hook {
			name = "hook"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			l := newDiscardLog(b, hook)
			r := rec(1)
			for i := 0; i < b.N; i += 8 {
				appendGroup(b, l, r, 8)
			}
		})
	}
}

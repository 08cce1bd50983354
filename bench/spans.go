package main

// Harness-side spans for the traced pass. The benchmark changes no program
// code, so spans are recorded here, around the calls into each layer: phase
// spans (setup, warmup, window, recover) and, per operation, a root "req"
// with the children "workload.next" (generator) and "client.<op>" (the
// round trip; "betree.<op>" in the embedded workload). Everything is kept in
// pre-allocated memory while the clock runs and written as JSON at the end.
// A span's self time is its duration minus its children's.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// opRingCap is how many operations each client retains (the newest win):
// the program's own tracer retains its newest 4096 spans, so the two sets
// overlap and obs.net_us_p50 can match them by trace id.
const opRingCap = 4096

// opSpan is one operation's timestamps (wall clock, ns since the epoch).
type opSpan struct {
	Start   int64 // before the generator draws the op
	Issue   int64 // generator done, call into the layer begins
	End     int64 // call returned
	Kind    uint8 // opGet / opPut / ...
	TraceID uint64
}

// opRing retains a client's newest opRingCap operations. One goroutine
// writes it; it is read only after that goroutine has finished.
type opRing struct {
	buf []opSpan
	n   int64 // operations ever added
}

func newOpRing() *opRing { return &opRing{buf: make([]opSpan, opRingCap)} }

func (r *opRing) add(s opSpan) {
	r.buf[r.n%opRingCap] = s
	r.n++
}

// each visits the retained operations, oldest first.
func (r *opRing) each(fn func(opSpan)) {
	lo := r.n - opRingCap
	if lo < 0 {
		lo = 0
	}
	for i := lo; i < r.n; i++ {
		fn(r.buf[i%opRingCap])
	}
}

// spanJSON is one span in bench/out/<workload>.spans.json. Parent is the
// index of the causing span in the file's array (-1 for a phase span); Req
// identifies the operation all of whose spans share it (0 for phases).
type spanJSON struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     uint64 `json:"req"`
}

// phaseSpan is a named stretch of the run (setup, warmup, window, recover).
type phaseSpan struct {
	Name       string
	Start, End time.Time
}

// Operation kinds, indexing latency classes and span names.
const (
	opGet = iota
	opPut
	opScan
	opUpsert
	opDelete
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "put", "scan", "upsert", "delete"}

// writeSpans writes the phase spans and every retained operation of every
// ring to path. layer prefixes the per-op call span ("client" or "betree").
// It returns the number of spans written.
func writeSpans(path, layer string, phases []phaseSpan, rings []*opRing) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	count := 0
	emit := func(s spanJSON) error {
		sep := ",\n"
		if count == 0 {
			sep = "[\n"
		}
		if _, err := w.WriteString(sep); err != nil {
			return err
		}
		count++
		return enc.Encode(s)
	}
	fail := func(err error) (int, error) {
		f.Close()
		return count, err
	}

	for _, p := range phases {
		if err := emit(spanJSON{Name: p.Name, StartNs: p.Start.UnixNano(), EndNs: p.End.UnixNano(), Parent: -1}); err != nil {
			return fail(err)
		}
	}
	// An operation's parent is the phase it started in.
	phaseOf := func(start int64) int {
		for i, p := range phases {
			if start >= p.Start.UnixNano() && start < p.End.UnixNano() {
				return i
			}
		}
		return -1
	}
	for c, r := range rings {
		var werr error
		seq := uint64(0)
		r.each(func(s opSpan) {
			if werr != nil {
				return
			}
			seq++
			req := uint64(c+1)<<32 | seq
			root := count
			for _, sp := range []spanJSON{
				{Name: "req", StartNs: s.Start, EndNs: s.End, Parent: phaseOf(s.Start), Req: req},
				{Name: "workload.next", StartNs: s.Start, EndNs: s.Issue, Parent: root, Req: req},
				{Name: layer + "." + opNames[s.Kind], StartNs: s.Issue, EndNs: s.End, Parent: root, Req: req},
			} {
				if werr = emit(sp); werr != nil {
					return
				}
			}
		})
		if werr != nil {
			return fail(werr)
		}
	}
	if count == 0 {
		if _, err := w.WriteString("["); err != nil {
			return fail(err)
		}
	}
	if _, err := w.WriteString("]\n"); err != nil {
		return fail(err)
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return count, fmt.Errorf("bench: close %s: %w", path, err)
	}
	return count, nil
}

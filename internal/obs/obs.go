// Package obs is the engine's end-to-end IO-path tracer: engine.Client
// operations open a Span, and the layers the operation flows through —
// pager, WAL, checkpoint, device — annotate it with child events (cache
// hits and misses, evictions, WAL appends and group-commit waits, device
// IOs with byte counts and virtual-time cost). A model-cost accountant
// (account.go) compares each traced operation's measured virtual-time cost
// against the cost the DAM, affine, and PDAM models predict from the
// device's fitted s, t, P, B parameters (calibrate.go), maintaining live
// residual histograms per model — the paper's §4 prediction-error claims
// as a production metric instead of an offline experiment.
//
// Cost discipline: tracing follows the storage.Trace contract — a nil
// *Tracer (and a nil *Span) records nothing, and every annotation hook in
// the engine is a plain pointer nil-check when tracing is off, so the
// disabled path adds no measurable overhead to the IO hot path. All times
// are virtual (sim.Time); the tracer never consults the wall clock on its
// own. The one exception is opt-in: Config.WallNow injects a wall-clock
// source so spans can additionally carry wall timestamps — the only common
// timeline different processes share, which the merged cross-process
// Chrome export (merge.go) needs.
package obs

import (
	"sync"
	"sync/atomic"

	"iomodels/internal/sim"
	"iomodels/internal/storage"
)

// Layer attributes a span event to the stack layer that caused it.
type Layer uint8

// The IO path's layers, outermost first.
const (
	// LayerTree is IO issued directly by the data structure (e.g. the
	// Bε-tree's partial segment reads, the LSM's run reads).
	LayerTree Layer = iota
	// LayerPager is IO caused by the buffer pool: cache-miss loads and
	// write-back evictions.
	LayerPager
	// LayerWAL is log IO: record appends and group-commit flushes.
	LayerWAL
	// LayerCheckpoint is durability-checkpoint IO: journal seals and
	// in-place page installs.
	LayerCheckpoint

	numLayers
)

// String names the layer.
func (l Layer) String() string {
	switch l {
	case LayerTree:
		return "tree"
	case LayerPager:
		return "pager"
	case LayerWAL:
		return "wal"
	case LayerCheckpoint:
		return "checkpoint"
	}
	return "unknown"
}

// EventKind discriminates span events.
type EventKind uint8

// Span event kinds.
const (
	// EvIO is one device IO; Op/Off/Size/At/Latency describe it and Layer
	// attributes it.
	EvIO EventKind = iota
	// EvCacheHit and EvCacheMiss are pager access outcomes (no IO of their
	// own; a miss's load IO arrives as separate EvIO events).
	EvCacheHit
	EvCacheMiss
	// EvEvict is a pager eviction; Op == storage.Write marks a dirty
	// (write-back) eviction, whose IO arrives as a separate EvIO.
	EvEvict
	// EvWALAppend is one log-record append; Size is the record's bytes.
	EvWALAppend
	// EvWALCommit is a group-commit flush barrier; Latency is the virtual
	// time the committer waited for the log device.
	EvWALCommit
	// EvMVCCHit and EvMVCCMiss are snapshot-read resolutions against the
	// engine's version chains: a hit was answered from the chain alone (no
	// structure access, no IO possible), a miss fell through to the
	// structure's ordinary read path.
	EvMVCCHit
	EvMVCCMiss
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvIO:
		return "io"
	case EvCacheHit:
		return "hit"
	case EvCacheMiss:
		return "miss"
	case EvEvict:
		return "evict"
	case EvWALAppend:
		return "wal-append"
	case EvWALCommit:
		return "wal-commit"
	case EvMVCCHit:
		return "mvcc-hit"
	case EvMVCCMiss:
		return "mvcc-miss"
	}
	return "unknown"
}

// Event is one child annotation of a span.
type Event struct {
	Kind    EventKind
	Layer   Layer
	Op      storage.Op
	Off     int64
	Size    int64
	At      sim.Time // issue instant (virtual)
	Latency sim.Time // duration (EvIO, EvWALCommit); 0 for instants
}

// Link names a span (possibly in another process) that caused this one:
// the client span that issued the request a server span answers, or the
// per-request write spans a group-commit span flushed together.
type Link struct {
	TraceID uint64 `json:"trace_id"`
	SpanID  uint64 `json:"span_id"` // the parent's Wire id
}

// Span is one traced operation: its name, virtual start/end instants, and
// the events the stack annotated it with. A span is owned by a single
// engine client — a client is single-goroutine by contract, so span
// methods take no lock; the tracer only touches a span after Finish hands
// it over.
//
// Cross-process identity: ID is process-local and dense; Wire is the id a
// span is known by on the wire (splitmix64 of the tracer's WireTag and
// ID), unique across processes with distinct tags. TraceID groups the
// spans of one distributed request; Links point at the spans that caused
// this one. WallStart/WallEnd are unix nanoseconds when the tracer has a
// WallNow source, zero otherwise.
type Span struct {
	ID        uint64
	Wire      uint64
	TraceID   uint64
	Links     []Link
	TID       int64 // owning client's id; Chrome export groups rows by it
	Op        string
	Start     sim.Time
	End       sim.Time
	WallStart int64
	WallEnd   int64
	Events    []Event
}

// AddLink records an extra causal parent (multi-parent spans: a group
// commit flushing several traced writes). Nil-safe.
func (sp *Span) AddLink(traceID, spanID uint64) {
	if sp == nil || traceID == 0 {
		return
	}
	if sp.TraceID == 0 {
		sp.TraceID = traceID
	}
	sp.Links = append(sp.Links, Link{TraceID: traceID, SpanID: spanID})
}

// Context returns the trace context downstream work should carry to
// continue this span's trace. Nil-safe (zero context).
func (sp *Span) Context() (tc TraceContext) {
	if sp == nil {
		return tc
	}
	tc.TraceID = sp.TraceID
	if tc.TraceID == 0 {
		// A root span anchors its own trace by its wire id.
		tc.TraceID = sp.Wire
	}
	tc.SpanID = sp.Wire
	tc.Sampled = true
	return tc
}

// TraceContext is the obs-side view of a propagated trace context (the
// wire codec lives in internal/kv; this mirror keeps obs free of protocol
// imports).
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
	Sampled bool
}

// IO records one device IO. Nil-safe.
func (sp *Span) IO(layer Layer, op storage.Op, off, size int64, at, latency sim.Time) {
	if sp == nil {
		return
	}
	sp.Events = append(sp.Events, Event{
		Kind: EvIO, Layer: layer, Op: op, Off: off, Size: size, At: at, Latency: latency,
	})
}

// CacheHit records a pager hit. Nil-safe.
func (sp *Span) CacheHit(at sim.Time) {
	if sp == nil {
		return
	}
	sp.Events = append(sp.Events, Event{Kind: EvCacheHit, Layer: LayerPager, At: at})
}

// CacheMiss records a pager miss. Nil-safe.
func (sp *Span) CacheMiss(at sim.Time) {
	if sp == nil {
		return
	}
	sp.Events = append(sp.Events, Event{Kind: EvCacheMiss, Layer: LayerPager, At: at})
}

// Evict records a pager eviction charged to this span's client (writeback
// marks a dirty eviction). Nil-safe.
func (sp *Span) Evict(writeback bool, at sim.Time) {
	if sp == nil {
		return
	}
	op := storage.Read
	if writeback {
		op = storage.Write
	}
	sp.Events = append(sp.Events, Event{Kind: EvEvict, Layer: LayerPager, Op: op, At: at})
}

// WALAppend records one log-record append of the given encoded size.
// Nil-safe.
func (sp *Span) WALAppend(bytes int64, at sim.Time) {
	if sp == nil {
		return
	}
	sp.Events = append(sp.Events, Event{Kind: EvWALAppend, Layer: LayerWAL, Size: bytes, At: at})
}

// WALCommit records a group-commit barrier and how long it waited.
// Nil-safe.
func (sp *Span) WALCommit(at, latency sim.Time) {
	if sp == nil {
		return
	}
	sp.Events = append(sp.Events, Event{Kind: EvWALCommit, Layer: LayerWAL, At: at, Latency: latency})
}

// MVCCResolve records a snapshot read's version-chain resolution: hit means
// the chain alone answered it. Nil-safe.
func (sp *Span) MVCCResolve(hit bool, at sim.Time) {
	if sp == nil {
		return
	}
	kind := EvMVCCMiss
	if hit {
		kind = EvMVCCHit
	}
	sp.Events = append(sp.Events, Event{Kind: kind, Layer: LayerTree, At: at})
}

// IOTime sums the span's device-IO virtual time.
func (sp *Span) IOTime() sim.Time {
	var total sim.Time
	for _, ev := range sp.Events {
		if ev.Kind == EvIO {
			total += ev.Latency
		}
	}
	return total
}

// hasWrite reports whether the span issued any device write (used to class
// residuals as read- or write-path).
func (sp *Span) hasWrite() bool {
	for _, ev := range sp.Events {
		if ev.Kind == EvIO && ev.Op == storage.Write {
			return true
		}
	}
	return false
}

// Config tunes a Tracer.
type Config struct {
	// SampleEvery traces one in N operations (Begin returns nil for the
	// rest), making tracing production-safe. 0 or 1 traces every op.
	SampleEvery int
	// Retain bounds the ring of finished spans kept for export (Chrome
	// trace, Spans). Default 4096.
	Retain int
	// Models, when set, enables the model-cost accountant: every finished
	// span's measured IO time is compared against the DAM/affine/PDAM
	// predictions and the residual recorded. Nil disables accounting but
	// keeps per-layer attribution.
	Models *Models
	// WallNow, when set, stamps spans with wall-clock start/end
	// nanoseconds from this source (time.Now().UnixNano in production;
	// a fake in tests). Nil keeps the tracer wall-clock-free.
	WallNow func() int64
	// WireTag makes this process's wire span ids distinct from other
	// processes': a span's Wire id is splitmix64(WireTag ^ ID). Zero is a
	// valid tag (a single-process deployment needs no distinction).
	WireTag uint64
}

// concWindow is how many recent device-IO intervals the tracer keeps to
// estimate the device's offered concurrency (see concurrency()).
const concWindow = 128

// ioInterval is one device IO's [start, end) on the clock mark's axis: it
// ends where the mark stood once the IO was reported (see Tracer.mark).
type ioInterval struct {
	start, end sim.Time
}

// Tracer collects finished spans, attributes virtual time to layers, and
// (with Models) accounts predicted-vs-measured cost per model. Begin is
// lock-free; Finish takes one mutex per sampled span. A nil *Tracer is a
// no-op on both.
type Tracer struct {
	sample  int64
	acct    *accountant // nil without Models
	wallNow func() int64
	wireTag uint64

	ctr    atomic.Int64 // ops offered to Begin
	nextID atomic.Uint64

	mu       sync.Mutex
	ring     []*Span // finished spans, ring buffer
	head     int     // next slot to overwrite once full
	finished int64
	layers   [numLayers]layerTotal
	counts   PathCounts
	window   [concWindow]ioInterval
	wlen     int
	wpos     int
	// mark is the latest completion any traced IO has reached — the shared
	// clock's mark, as far as the tracer can see it. The window holds each
	// IO where the mark stood when it was reported, not where its client's
	// cursor did: serving connections run on cursors of their own, hundreds
	// of steps apart, and the hull of their IOs' own intervals is that drift,
	// not the time the device spent on them. The window is a count of IOs, so
	// its length in time varies, and a mean of busy/length ratios weights the
	// short windows up: the estimate is biased high and can read above the
	// device's P (by about 5 % on a full 16-slot device). It says how many
	// IOs compete, not how full the steps are; the device's own slot
	// utilisation is the number for that.
	mark    sim.Time
	concSum float64
	concN   int64
}

// layerTotal accumulates one layer's device traffic.
type layerTotal struct {
	ios   int64
	bytes int64
	time  sim.Time
}

// PathCounts aggregates the non-IO path events across finished spans.
type PathCounts struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
	Writebacks int64 `json:"writebacks"`
	WALAppends int64 `json:"wal_appends"`
	WALCommits int64 `json:"wal_commits"`
	MVCCHits   int64 `json:"mvcc_hits"`
	MVCCMisses int64 `json:"mvcc_misses"`
}

// NewTracer creates a tracer.
func NewTracer(cfg Config) *Tracer {
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	if cfg.Retain <= 0 {
		cfg.Retain = 4096
	}
	t := &Tracer{
		sample:  int64(cfg.SampleEvery),
		wallNow: cfg.WallNow,
		wireTag: cfg.WireTag,
		ring:    make([]*Span, 0, cfg.Retain),
	}
	if cfg.Models != nil {
		t.acct = newAccountant(*cfg.Models)
	}
	return t
}

// SetModels attaches the model-cost accountant after construction, for a
// tracer built before its device could be calibrated (a node calibrates at
// the preloaded region, known only once the preload has run). Call it before
// the tracer sees its first span.
func (t *Tracer) SetModels(m Models) { t.acct = newAccountant(m) }

// Models returns the accountant's model parameters (nil without one).
func (t *Tracer) Models() *Models {
	if t == nil || t.acct == nil {
		return nil
	}
	m := t.acct.models
	return &m
}

// Begin opens a span for op at virtual instant now, or returns nil when
// this op falls outside the 1-in-N sample. Nil-safe on a nil tracer.
func (t *Tracer) Begin(op string, tid int64, now sim.Time) *Span {
	if t == nil {
		return nil
	}
	if n := t.ctr.Add(1); t.sample > 1 && n%t.sample != 0 {
		return nil
	}
	return t.newSpan(op, tid, now)
}

// BeginLinked opens a span continuing a carried trace context: the caller
// received a request that is already part of a trace, so sampling does not
// apply — the originator explicitly asked for this operation to be traced.
// A zero context falls back to ordinary sampled Begin. Nil-safe.
func (t *Tracer) BeginLinked(op string, tid int64, now sim.Time, tc TraceContext) *Span {
	if t == nil {
		return nil
	}
	if tc.TraceID == 0 {
		return t.Begin(op, tid, now)
	}
	t.ctr.Add(1)
	sp := t.newSpan(op, tid, now)
	sp.TraceID = tc.TraceID
	sp.Links = append(sp.Links, Link{TraceID: tc.TraceID, SpanID: tc.SpanID})
	return sp
}

func (t *Tracer) newSpan(op string, tid int64, now sim.Time) *Span {
	id := t.nextID.Add(1)
	sp := &Span{ID: id, Wire: splitmix64(t.wireTag ^ id), TID: tid, Op: op, Start: now}
	if t.wallNow != nil {
		sp.WallStart = t.wallNow()
	}
	return sp
}

// splitmix64 is the SplitMix64 finalizer: a cheap bijective mixer that
// spreads (tag ^ dense-id) over the full 64-bit space, so two processes
// with distinct tags cannot collide on small span ids.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Finish closes sp at virtual instant now: the span's events are folded
// into the per-layer totals and path counts, the accountant (if any)
// records the per-model residuals, and the span joins the export ring.
func (t *Tracer) Finish(sp *Span, now sim.Time) {
	if t == nil || sp == nil {
		return
	}
	sp.End = now
	if t.wallNow != nil {
		sp.WallEnd = t.wallNow()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finished++
	for _, ev := range sp.Events {
		switch ev.Kind {
		case EvIO:
			lt := &t.layers[ev.Layer]
			lt.ios++
			lt.bytes += ev.Size
			lt.time += ev.Latency
			if end := ev.At + ev.Latency; end > t.mark {
				t.mark = end
			}
			t.window[t.wpos] = ioInterval{start: t.mark - ev.Latency, end: t.mark}
			t.wpos = (t.wpos + 1) % concWindow
			if t.wlen < concWindow {
				t.wlen++
			}
		case EvCacheHit:
			t.counts.Hits++
		case EvCacheMiss:
			t.counts.Misses++
		case EvEvict:
			t.counts.Evictions++
			if ev.Op == storage.Write {
				t.counts.Writebacks++
			}
		case EvWALAppend:
			t.counts.WALAppends++
		case EvWALCommit:
			t.counts.WALCommits++
		case EvMVCCHit:
			t.counts.MVCCHits++
		case EvMVCCMiss:
			t.counts.MVCCMisses++
		}
	}
	conc := t.concurrencyLocked()
	if conc > 0 {
		t.concSum += conc
		t.concN++
	}
	if t.acct != nil {
		t.acct.observe(sp, conc)
	}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, sp)
	} else {
		t.ring[t.head] = sp
		t.head = (t.head + 1) % len(t.ring)
	}
}

// concurrencyLocked estimates the device's average offered concurrency
// over the recent-IO window by Little's law: total busy time divided by
// the stretch of the clock mark's axis the window covers. The estimate is
// what the PDAM and DAM predictions need (how many IOs compete for the
// device's P slots) and is itself exported as "measured parallelism" next
// to the fitted P. Caller holds t.mu. Returns 0 before any IO.
func (t *Tracer) concurrencyLocked() float64 {
	if t.wlen == 0 {
		return 0
	}
	lo, hi := t.window[0].start, t.window[0].end
	var busy sim.Time
	for i := 0; i < t.wlen; i++ {
		iv := t.window[i]
		busy += iv.end - iv.start
		if iv.start < lo {
			lo = iv.start
		}
		if iv.end > hi {
			hi = iv.end
		}
	}
	if hi <= lo {
		return 1
	}
	c := float64(busy) / float64(hi-lo)
	if c < 1 {
		c = 1
	}
	return c
}

// Spans returns the retained finished spans, oldest first.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, len(t.ring))
	out = append(out, t.ring[t.head:]...)
	out = append(out, t.ring[:t.head]...)
	return out
}

// LayerSummary is one layer's share of the device traffic.
type LayerSummary struct {
	Layer       string  `json:"layer"`
	IOs         int64   `json:"ios"`
	Bytes       int64   `json:"bytes"`
	TimeSeconds float64 `json:"time_seconds"`
}

// Summary is a point-in-time view of everything the tracer has seen,
// JSON-ready for the server's /stats document.
type Summary struct {
	Ops            int64             `json:"ops"`   // operations offered (incl. sampled out)
	Spans          int64             `json:"spans"` // finished sampled spans
	SampleEvery    int               `json:"sample_every"`
	Retained       int               `json:"retained"`
	AvgConcurrency float64           `json:"avg_concurrency"`
	Counts         PathCounts        `json:"counts"`
	Layers         []LayerSummary    `json:"layers"`
	Models         *Models           `json:"models,omitempty"`
	Residuals      []ResidualSummary `json:"residuals,omitempty"`
}

// Summary snapshots the tracer. Nil-safe (returns a zero summary).
func (t *Tracer) Summary() Summary {
	if t == nil {
		return Summary{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Summary{
		Ops:         t.ctr.Load(),
		Spans:       t.finished,
		SampleEvery: int(t.sample),
		Retained:    len(t.ring),
		Counts:      t.counts,
	}
	if t.concN > 0 {
		s.AvgConcurrency = t.concSum / float64(t.concN)
	}
	for l := Layer(0); l < numLayers; l++ {
		lt := t.layers[l]
		if lt.ios == 0 {
			continue
		}
		s.Layers = append(s.Layers, LayerSummary{
			Layer:       l.String(),
			IOs:         lt.ios,
			Bytes:       lt.bytes,
			TimeSeconds: lt.time.Seconds(),
		})
	}
	if t.acct != nil {
		m := t.acct.models
		s.Models = &m
		s.Residuals = t.acct.summary()
	}
	return s
}

// MVCC snapshot reads: the version layer that lets read sessions pin an LSN
// instead of sharing the writer's world view.
//
// The WAL (durability.go) already stamps every mutation with a sequence
// number; this file turns those LSNs into version stamps. While at least one
// snapshot is live, every mutation on a Durable dictionary appends its
// post-image to an in-memory version chain for its key — and the first write
// to a key additionally captures the pre-image the structure held, so the
// chain alone answers "what was this key's value at LSN S" for every live S.
// A key with no chain has not changed since the oldest live snapshot opened,
// so the structure's current answer IS the snapshot answer: snapshot reads
// that hit a chain never touch the tree (or the device), and snapshot reads
// that miss fall through to the ordinary read path, which is already
// correct. With no snapshots live the layer records nothing and costs the
// write path one uncontended mutex acquisition.
//
// Chains are bounded (DurabilityConfig.MaxVersionsPerKey): trimming the old
// end moves the chain's floor forward, and a snapshot pinned below the floor
// gets ErrSnapshotTooOld rather than a wrong answer. A visible-horizon GC
// runs whenever the oldest live snapshot retires: versions no snapshot can
// see any more are reclaimed, and a chain whose newest version is below the
// horizon is dropped entirely (the structure's current value serves every
// remaining snapshot). See DESIGN.md §9.
package engine

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrSnapshotTooOld reports a read through a snapshot whose LSN the bounded
// version chains no longer cover (the chain was trimmed past it).
var ErrSnapshotTooOld = errors.New("engine: snapshot too old: version chain trimmed past its LSN")

// ErrSnapshotReleased reports a read through a released snapshot.
var ErrSnapshotReleased = errors.New("engine: read through released snapshot")

// ErrSnapshotOutOfRange reports SnapshotAt with an LSN outside the recorded
// window [tide, applied].
var ErrSnapshotOutOfRange = errors.New("engine: snapshot LSN outside the recorded window")

// version is one recorded post-image (or, at the chain head, the pre-image
// captured when recording first touched the key). present=false is a
// tombstone. value is immutable once appended.
type version struct {
	lsn     uint64
	value   []byte
	present bool
}

// vchain is one key's version history, ascending by LSN. versions[0].lsn is
// the chain's floor: snapshots pinned below it are too old for this key.
type vchain struct {
	versions []version
}

// vshards is the chain map's shard count (guards are per shard so snapshot
// readers contend only with writes to the same shard).
const vshards = 16

type vshard struct {
	mu     sync.RWMutex //lint:lockrank 80
	chains map[string]*vchain
}

// chainLenBounds are the version-chain length histogram's inclusive upper
// bounds; the last bucket is unbounded.
var chainLenBounds = [...]int{1, 2, 4, 8, 16, 32, 64}

// versionStore is the engine's MVCC state. mu serializes snapshot opens and
// releases against the single writer's mutation bracket (begin/end), so a
// snapshot always pins an LSN whose every successor is chain-recorded.
type versionStore struct {
	maxVersions int // chain length bound per key; <=0 = unbounded

	mu      sync.Mutex     //lint:lockrank 70
	applied uint64         // LSN of the last applied mutation
	pending uint64         // LSN of the mutation between begin and end
	tide    uint64         // applied LSN when recording last (re)started
	live    map[uint64]int // live snapshot LSN → refcount
	liveN   int

	shards [vshards]vshard

	// Counters (atomics: read by the metrics path without the locks).
	opened    atomic.Int64
	released  atomic.Int64
	hits      atomic.Int64 // reads answered from a chain
	misses    atomic.Int64 // reads that fell through to the structure
	tooOld    atomic.Int64
	reclVers  atomic.Int64 // versions reclaimed (GC + chain-bound trims)
	reclChain atomic.Int64 // whole chains reclaimed
	chainLen  [len(chainLenBounds) + 1]atomic.Int64
}

func newVersionStore(maxVersions int) *versionStore {
	v := &versionStore{maxVersions: maxVersions, live: make(map[uint64]int)}
	for i := range v.shards {
		v.shards[i] = vshard{chains: make(map[string]*vchain)}
	}
	return v
}

func (v *versionStore) shard(key []byte) *vshard {
	// FNV-1a over the key, folded onto the shard count.
	h := uint64(14695981039346656037)
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return &v.shards[h%vshards]
}

// begin opens the mutation bracket for one write: called by the Durable
// wrappers after the WAL append, before the structure applies the mutation.
// It holds v.mu until the matching end, so a concurrent Snapshot() pins
// either before this mutation (and finds its pre-image in the chain) or
// after it is applied — never in between. pre reads the key's pre-image; it
// is only invoked when this is the first recorded write to the key.
func (v *versionStore) begin(lsn uint64, key []byte, value []byte, present bool, pre func() ([]byte, bool)) {
	v.mu.Lock()
	if lsn <= v.applied {
		// The WAL stopped handing out LSNs (durability degraded to unlogged
		// mutations): keep stamping monotonically anyway.
		lsn = v.applied + 1
	}
	v.pending = lsn
	if v.liveN == 0 {
		return // no snapshots: record nothing, bracket still serializes opens
	}
	sh := v.shard(key)
	sh.mu.Lock()
	ch := sh.chains[string(key)]
	if ch == nil {
		// First recorded write to this key: capture the pre-image so every
		// live snapshot (all pinned before lsn) can still resolve it. The
		// structure read runs without the shard lock — only the writer
		// creates chains, so no one can race the insert.
		sh.mu.Unlock()
		//lint:allowblock v.mu is the writer's own open/write bracket, held by the single writer; pre() is a structural pre-image read that must happen before this write becomes visible
		pv, pok := pre()
		base := version{lsn: 0, value: copyBytes(pv), present: pok}
		sh.mu.Lock()
		ch = &vchain{versions: make([]version, 0, 4)}
		ch.versions = append(ch.versions, base)
		sh.chains[string(key)] = ch
	}
	ch.versions = append(ch.versions, version{lsn: lsn, value: copyBytes(value), present: present})
	if v.maxVersions > 0 && len(ch.versions) > v.maxVersions {
		drop := len(ch.versions) - v.maxVersions
		n := copy(ch.versions, ch.versions[drop:])
		for i := n; i < len(ch.versions); i++ {
			ch.versions[i] = version{} // release trimmed values
		}
		ch.versions = ch.versions[:n]
		v.reclVers.Add(int64(drop))
	}
	sh.mu.Unlock()
}

// end closes the mutation bracket: the mutation is applied, its LSN becomes
// the applied high-water mark, and snapshot opens may proceed.
func (v *versionStore) end() {
	if v.pending > v.applied {
		v.applied = v.pending
	}
	v.mu.Unlock()
}

// open pins a snapshot at the current applied LSN (or, for atLSN >= 0, at a
// named LSN inside the recorded window — time travel).
func (v *versionStore) open(atLSN int64) (*Snap, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.liveN == 0 {
		// Recording starts (or restarts) now: chains are complete for every
		// LSN from here on, and nothing older is reachable.
		v.tide = v.applied
	}
	lsn := v.applied
	if atLSN >= 0 {
		if uint64(atLSN) < v.tide || uint64(atLSN) > v.applied {
			return nil, ErrSnapshotOutOfRange
		}
		lsn = uint64(atLSN)
	}
	v.live[lsn]++
	v.liveN++
	v.opened.Add(1)
	return &Snap{v: v, lsn: lsn}, nil
}

// release retires one snapshot and runs the horizon GC if the oldest live
// LSN moved.
func (v *versionStore) release(lsn uint64) {
	v.mu.Lock()
	oldH, _ := v.horizonLocked()
	if n := v.live[lsn] - 1; n > 0 {
		v.live[lsn] = n
	} else {
		delete(v.live, lsn)
	}
	v.liveN--
	v.released.Add(1)
	if v.liveN == 0 {
		v.clearLocked()
	} else if h, ok := v.horizonLocked(); ok && h > oldH {
		v.gcLocked(h)
	}
	v.mu.Unlock()
}

// horizonLocked returns the oldest live snapshot LSN. Caller holds v.mu.
func (v *versionStore) horizonLocked() (uint64, bool) {
	if len(v.live) == 0 {
		return v.applied, false
	}
	first := true
	var h uint64
	for lsn := range v.live {
		if first || lsn < h {
			h = lsn
			first = false
		}
	}
	return h, true
}

// clearLocked drops every chain: with no snapshots live, nothing can read
// them. Caller holds v.mu.
func (v *versionStore) clearLocked() {
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.Lock()
		for _, ch := range sh.chains {
			v.reclVers.Add(int64(len(ch.versions)))
		}
		v.reclChain.Add(int64(len(sh.chains)))
		sh.chains = make(map[string]*vchain)
		sh.mu.Unlock()
	}
}

// gcLocked reclaims versions invisible to every snapshot at or above
// horizon h: in each chain only the newest version at or below h can still
// be read, and a chain whose newest version is at or below h is equivalent
// to the structure's current state, so the whole chain goes. Caller holds
// v.mu.
func (v *versionStore) gcLocked(h uint64) {
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.Lock()
		for key, ch := range sh.chains {
			vs := ch.versions
			if vs[len(vs)-1].lsn <= h {
				v.reclVers.Add(int64(len(vs)))
				v.reclChain.Add(1)
				delete(sh.chains, key)
				continue
			}
			// Newest index at or below h; everything before it is dead.
			idx := sort.Search(len(vs), func(i int) bool { return vs[i].lsn > h }) - 1
			if idx > 0 {
				n := copy(vs, vs[idx:])
				for j := n; j < len(vs); j++ {
					vs[j] = version{}
				}
				ch.versions = vs[:n]
				v.reclVers.Add(int64(idx))
			}
		}
		sh.mu.Unlock()
	}
}

// resolve answers a point read at LSN lsn from the chains alone. hit=false
// means the key has no recorded version and the structure's current value
// is the snapshot-visible one.
func (v *versionStore) resolve(lsn uint64, key []byte) (value []byte, present, hit bool, err error) {
	sh := v.shard(key)
	sh.mu.RLock()
	ch := sh.chains[string(key)]
	if ch == nil {
		sh.mu.RUnlock()
		v.misses.Add(1)
		return nil, false, false, nil
	}
	vs := ch.versions
	idx := sort.Search(len(vs), func(i int) bool { return vs[i].lsn > lsn }) - 1
	if idx < 0 {
		sh.mu.RUnlock()
		v.tooOld.Add(1)
		return nil, false, false, ErrSnapshotTooOld
	}
	value, present = vs[idx].value, vs[idx].present
	n := len(vs)
	sh.mu.RUnlock()
	v.hits.Add(1)
	v.observeChainLen(n)
	return value, present, true, nil
}

func (v *versionStore) observeChainLen(n int) {
	for i, bound := range chainLenBounds {
		if n <= bound {
			v.chainLen[i].Add(1)
			return
		}
	}
	v.chainLen[len(chainLenBounds)].Add(1)
}

// overlayEntry is one chain-resolved key inside a scan range.
type overlayEntry struct {
	key     string
	value   []byte
	present bool
}

// overlay collects every chain key in [lo, hi) with its version visible at
// lsn, sorted. An empty hi means no upper bound (matching Dictionary.Scan).
func (v *versionStore) overlay(lsn uint64, lo, hi []byte) ([]overlayEntry, error) {
	var out []overlayEntry
	los, his := string(lo), string(hi)
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.RLock()
		for key, ch := range sh.chains {
			if key < los || (len(his) > 0 && key >= his) {
				continue
			}
			vs := ch.versions
			idx := sort.Search(len(vs), func(i int) bool { return vs[i].lsn > lsn }) - 1
			if idx < 0 {
				sh.mu.RUnlock()
				v.tooOld.Add(1)
				return nil, ErrSnapshotTooOld
			}
			out = append(out, overlayEntry{key: key, value: vs[idx].value, present: vs[idx].present})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
}

func copyBytes(p []byte) []byte {
	if p == nil {
		return nil
	}
	return append([]byte(nil), p...)
}

// Snap is a read session pinned at one LSN: every read through it observes
// exactly the state the engine had applied when the snapshot opened, no
// matter how many mutations commit afterwards. A Snap is safe for
// concurrent use by many readers; Release it when done — live snapshots pin
// version-chain memory.
type Snap struct {
	v        *versionStore
	lsn      uint64
	released atomic.Bool
}

// LSN returns the pinned WAL sequence number.
func (s *Snap) LSN() uint64 { return s.lsn }

// Release retires the snapshot. Idempotent; reads after Release fail with
// ErrSnapshotReleased.
func (s *Snap) Release() {
	if s == nil || s.released.Swap(true) {
		return
	}
	s.v.release(s.lsn)
}

// TryGet resolves key against the version chains alone: hit=false (with a
// nil error) means the key has not changed since the snapshot opened, and
// the caller must consult the structure — whose current value is then the
// snapshot-visible one. Servers use the split form to route chain hits
// around the batch read scheduler (no device IO can occur).
func (s *Snap) TryGet(key []byte) (value []byte, present, hit bool, err error) {
	if s.released.Load() {
		return nil, false, false, ErrSnapshotReleased
	}
	return s.v.resolve(s.lsn, key)
}

// Get reads key as of the snapshot's LSN, falling through to d for keys
// without a recorded version. d must be the dictionary (or its session)
// whose mutations the snapshot's engine logs.
func (s *Snap) Get(d Dictionary, key []byte) ([]byte, bool, error) {
	value, present, hit, err := s.TryGet(key)
	if err != nil {
		return nil, false, err
	}
	if hit {
		return value, present, nil
	}
	v, ok := d.Get(key)
	return v, ok, nil
}

// Scan visits [lo, hi) as of the snapshot's LSN: the structure's current
// scan stream merged with the chain overlay — chain versions override
// current values, keys deleted since the snapshot reappear, keys created
// since vanish. fn's contract matches Dictionary.Scan.
func (s *Snap) Scan(d Dictionary, lo, hi []byte, fn func(key, value []byte) bool) error {
	if s.released.Load() {
		return ErrSnapshotReleased
	}
	over, err := s.v.overlay(s.lsn, lo, hi)
	if err != nil {
		return err
	}
	i := 0
	stopped := false
	d.Scan(lo, hi, func(k, v []byte) bool {
		ks := string(k)
		for i < len(over) && over[i].key < ks {
			e := over[i]
			i++
			if e.present && !fn([]byte(e.key), e.value) {
				stopped = true
				return false
			}
		}
		if i < len(over) && over[i].key == ks {
			e := over[i]
			i++
			if !e.present {
				return true // deleted as of the snapshot
			}
			if !fn(k, e.value) {
				stopped = true
				return false
			}
			return true
		}
		if !fn(k, v) {
			stopped = true
			return false
		}
		return true
	})
	for !stopped && i < len(over) {
		e := over[i]
		i++
		if e.present && !fn([]byte(e.key), e.value) {
			break
		}
	}
	return nil
}

// Snapshot pins a read session at the engine's current applied high-water
// LSN. Requires durability (the WAL provides the version stamps). The
// caller must Release the snapshot.
func (e *Engine) Snapshot() (*Snap, error) {
	if e.mvcc == nil {
		return nil, errNotEnabled
	}
	return e.mvcc.open(-1)
}

// SnapshotAt pins a read session at a named LSN — time travel. Valid LSNs
// are those inside the recorded window: from the instant the oldest
// continuously-live snapshot opened (the tide mark) through the current
// applied LSN. With no snapshots live only the current LSN is valid.
func (e *Engine) SnapshotAt(lsn uint64) (*Snap, error) {
	if e.mvcc == nil {
		return nil, errNotEnabled
	}
	if lsn > uint64(1)<<62 {
		return nil, ErrSnapshotOutOfRange
	}
	return e.mvcc.open(int64(lsn))
}

// Snapshot pins a read session at the engine's current applied LSN (see
// Engine.Snapshot); offered on Client so read-path code holding only a
// client can open one.
func (c *Client) Snapshot() (*Snap, error) { return c.eng.Snapshot() }

// MVCCStats is the version layer's self-report.
type MVCCStats struct {
	Enabled       bool
	AppliedLSN    uint64 // last applied mutation's version stamp
	HorizonLSN    uint64 // oldest live snapshot LSN (= applied when none)
	TideLSN       uint64 // oldest LSN SnapshotAt can reach
	LiveSnapshots int

	Chains   int // keys with a live version chain
	Versions int // recorded versions across all chains

	SnapshotsOpened   int64
	SnapshotsReleased int64
	ChainHits         int64 // snapshot reads answered by a chain
	ChainMisses       int64 // snapshot reads that fell through
	TooOld            int64 // reads refused with ErrSnapshotTooOld
	ReclaimedVersions int64 // versions reclaimed by GC and chain bounds
	ReclaimedChains   int64 // whole chains reclaimed

	// ChainLenCounts histograms the chain length seen by each chain-hit
	// read; bucket i counts lengths <= ChainLenBounds()[i], the last bucket
	// is unbounded.
	ChainLenCounts []int64
}

// ChainLenBounds returns the chain-length histogram's bucket upper bounds
// (the last MVCCStats.ChainLenCounts bucket is unbounded).
func ChainLenBounds() []int { return append([]int(nil), chainLenBounds[:]...) }

// MVCCStats returns a snapshot of the version layer's state and counters
// (zero value if durability — and with it MVCC — is off).
func (e *Engine) MVCCStats() MVCCStats {
	v := e.mvcc
	if v == nil {
		return MVCCStats{}
	}
	v.mu.Lock()
	h, _ := v.horizonLocked()
	out := MVCCStats{
		Enabled:       true,
		AppliedLSN:    v.applied,
		HorizonLSN:    h,
		TideLSN:       v.tide,
		LiveSnapshots: v.liveN,
	}
	v.mu.Unlock()
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.RLock()
		out.Chains += len(sh.chains)
		for _, ch := range sh.chains {
			out.Versions += len(ch.versions)
		}
		sh.mu.RUnlock()
	}
	out.SnapshotsOpened = v.opened.Load()
	out.SnapshotsReleased = v.released.Load()
	out.ChainHits = v.hits.Load()
	out.ChainMisses = v.misses.Load()
	out.TooOld = v.tooOld.Load()
	out.ReclaimedVersions = v.reclVers.Load()
	out.ReclaimedChains = v.reclChain.Load()
	out.ChainLenCounts = make([]int64, len(v.chainLen))
	for i := range v.chainLen {
		out.ChainLenCounts[i] = v.chainLen[i].Load()
	}
	return out
}

package engine

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"iomodels/internal/obs"
	"iomodels/internal/sim"
)

// PageID identifies a cached object. Trees use the object's disk offset,
// which the engine's shared allocator keeps unique across every structure
// on the engine.
type PageID int64

// Loader moves objects between pager and disk on behalf of a client, so
// load and write-back IO is charged to the client that caused it.
type Loader interface {
	// Load reads and decodes the object; size is its charged byte footprint.
	Load(c *Client, id PageID) (obj interface{}, size int64)
	// Store serializes and writes back a dirty object: the whole page, from
	// its start. c.Evicting() tells it whether obj stays resident (a flush)
	// or is dropped once Store returns (an eviction). An extent given to
	// c.Handover becomes the store's image and is never written again; one
	// given to c.WriteAt is copied, so the memory of an evicted object that
	// no reader holds a view of may be reused.
	Store(c *Client, id PageID, obj interface{})
}

// StoreSizer is an optional Loader extension reporting the exact byte
// length Store would write for obj right now. The pager uses it to track
// the encoded size of the dirty set (DirtyBytes), which the durability
// layer compares against its dirty-set budget — charged (in-memory) sizes
// can be much smaller than the on-disk images a checkpoint must write.
// Loaders without it are assumed to store their charged size.
type StoreSizer interface {
	StoreSize(obj interface{}) int64
}

// ShardStats counts one shard's traffic.
type ShardStats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64
	// PeakOver is the maximum number of bytes the shard exceeded its budget
	// by, which can happen transiently when the pinned working set is larger
	// than the budget.
	PeakOver int64
}

func (s *ShardStats) add(o ShardStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Writebacks += o.Writebacks
	if o.PeakOver > s.PeakOver {
		s.PeakOver = o.PeakOver
	}
}

// PagerStats aggregates traffic over all shards.
type PagerStats struct {
	ShardStats
	Shards   int
	PerShard []ShardStats
}

// HitRatio returns hits/(hits+misses), or 0 before any traffic.
func (s PagerStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// String gives a one-line summary.
func (s PagerStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d (ratio %.3f) evictions=%d writebacks=%d shards=%d",
		s.Hits, s.Misses, s.HitRatio(), s.Evictions, s.Writebacks, s.Shards)
}

// Pin is one cached object, as the client that pinned it holds it: Pin,
// TryPin, Put and PutClean return it beside the object, and its methods
// (Unpin, MarkDirty, Release, Grow, Swap) take its shard's lock without
// looking the page up again. A pinned object stays resident, so the *Pin
// stays valid until the pin it stands for is released.
//
// busy latches it during a load or an eviction: while busy, only the
// latching client touches obj, and every other client waits in
// shard.lockUnlatched. writing is the weaker write-back latch Flush uses: the
// object is resident and immutable while its image streams out, so readers
// may still hit and pin it — snapshot and point reads are never serialized
// behind the no-steal checkpoint's write-back (they effectively read the
// pre-image frame the flusher is copying from). Neither latched form is ever
// in the LRU.
type Pin struct {
	id         PageID
	sh         *shard
	obj        interface{}
	size       int64
	enc        int64 // while dirty: Store's byte length, counted in shard.dirtyBytes
	dirty      bool
	pins       int
	busy       bool
	writing    bool
	freeAt     sim.Time // the latch holder's virtual instant when busy/writing last cleared
	loader     Loader
	prev, next *Pin // neighbours on the shard's LRU ring; nil while pinned or latched
}

// ID returns the pinned page's id.
func (it *Pin) ID() PageID { return it.id }

// encSize returns the bytes Store would write for it's current object.
func (it *Pin) encSize() int64 {
	if ss, ok := it.loader.(StoreSizer); ok {
		return ss.StoreSize(it.obj)
	}
	return it.size
}

type shard struct {
	mu     sync.Mutex
	budget int64
	used   int64
	// dirtyBytes tracks the encoded (Store) size of dirty items, and the
	// pager's dirtyBytes, their sum over its shards, moves with it
	// (addDirty). The durability layer checkpoints when the sum reaches half
	// its dirty-set budget (DurabilityConfig.JournalBytes).
	dirtyBytes int64
	p          *Pager
	items      map[PageID]*Pin
	// lru is the sentinel of a ring of the unpinned, unlatched items:
	// lru.next is the most recently used, lru.prev the eviction candidate.
	lru   Pin
	stats ShardStats
}

// pushFront makes it, which is off the ring, sh's most recently used item.
// Caller holds sh.mu.
func (sh *shard) pushFront(it *Pin) {
	it.prev, it.next = &sh.lru, sh.lru.next
	it.prev.next, it.next.prev = it, it
}

// unlink takes it off sh's LRU ring if it is on it. Caller holds sh.mu.
func (sh *shard) unlink(it *Pin) {
	if it.next != nil {
		it.prev.next, it.next.prev = it.next, it.prev
		it.prev, it.next = nil, nil
	}
}

// addDirty changes sh's dirty bytes, and the pager's total, by d. Caller
// holds sh.mu.
func (sh *shard) addDirty(d int64) {
	sh.dirtyBytes += d
	sh.p.dirtyBytes.Add(d)
}

// overBudget records how far over budget sh is in PeakOver and reports
// whether it is over at all. Caller holds sh.mu.
func (sh *shard) overBudget() bool {
	over := sh.used - sh.budget
	if over > sh.stats.PeakOver {
		sh.stats.PeakOver = over
	}
	return over > 0
}

// Pager is the engine's buffer pool: an LRU object cache with a byte
// budget, sharded so concurrent clients contend only per shard. Within a
// shard the lock covers map/LRU manipulation only — IO (loads and
// write-backs) happens outside the lock under a per-item busy latch, so a
// client sleeping out an IO's virtual latency never blocks the others.
type Pager struct {
	shards []*shard
	// noSteal, set by the engine's durability layer before the workload
	// starts, forbids evicting dirty pages: between checkpoints the on-disk
	// image of checkpointed state must stay intact, so dirty pages live in
	// memory until the next checkpoint writes them as one recoverable unit
	// (a no-steal buffer policy). The dirty working set can then exceed the
	// budget; PeakOver records by how much.
	noSteal bool
	// dirtyBytes is the sum of the shards' dirtyBytes, kept as they change:
	// the durability layer reads it before every logged mutation.
	dirtyBytes atomic.Int64
}

func newPager(cfg Config) *Pager {
	if cfg.CacheBytes <= 0 {
		panic("engine: non-positive cache budget")
	}
	n := cfg.Shards
	if n <= 0 {
		n = int(cfg.CacheBytes / (8 << 20))
		if n < 1 {
			n = 1
		}
		if n > 16 {
			n = 16
		}
	}
	per := cfg.CacheBytes / int64(n)
	if per <= 0 {
		per = 1
	}
	p := &Pager{shards: make([]*shard, n)}
	for i := range p.shards {
		sh := &shard{budget: per, items: make(map[PageID]*Pin), p: p}
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
		p.shards[i] = sh
	}
	return p
}

// shard returns id's shard: the high word of id's hash modulo the shard
// count, taken by mask when the count is a power of two.
func (p *Pager) shard(id PageID) *shard {
	h, n := (uint64(id)*0x9E3779B97F4A7C15)>>32, uint64(len(p.shards))
	if n&(n-1) == 0 {
		return p.shards[h&(n-1)]
	}
	return p.shards[h%n]
}

// Budget returns the total configured byte budget (the model's M).
func (p *Pager) Budget() int64 {
	var total int64
	for _, sh := range p.shards {
		total += sh.budget
	}
	return total
}

// Used returns the bytes currently charged across all shards.
func (p *Pager) Used() int64 {
	var total int64
	for _, sh := range p.shards {
		sh.mu.Lock()
		total += sh.used
		sh.mu.Unlock()
	}
	return total
}

// DirtyBytes returns the encoded size of dirty (not yet written back)
// objects across all shards: the write-back volume of the next checkpoint
// under the no-steal policy.
func (p *Pager) DirtyBytes() int64 { return p.dirtyBytes.Load() }

// Stats returns a snapshot of traffic counters, aggregated and per shard.
func (p *Pager) Stats() PagerStats {
	out := PagerStats{Shards: len(p.shards), PerShard: make([]ShardStats, len(p.shards))}
	for i, sh := range p.shards {
		sh.mu.Lock()
		out.PerShard[i] = sh.stats
		sh.mu.Unlock()
		out.ShardStats.add(out.PerShard[i])
	}
	return out
}

// ResetStats zeroes the traffic counters.
func (p *Pager) ResetStats() {
	for _, sh := range p.shards {
		sh.mu.Lock()
		sh.stats = ShardStats{}
		sh.mu.Unlock()
	}
}

// Contains reports whether id is resident (without touching LRU order).
func (p *Pager) Contains(id PageID) bool {
	sh := p.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.items[id]
	return ok
}

// lockUnlatched locks sh and returns id's item (nil when not resident) once
// no other client holds its busy latch — nor, with writingToo, its write-back
// latch. The caller unlocks. This is the pager's one latch wait, and the rule
// it keeps differs by kind of client (see Client.wait): a cooperative client
// polls in virtual time; a host-scheduled one yields without charging any and
// then resumes at the instant the holder released the latch — where a waiter
// woken by the holder would be — so its cursor does not depend on how long
// the host kept the holder off-CPU.
func (sh *shard) lockUnlatched(c *Client, id PageID, writingToo bool) *Pin {
	var waited *Pin
	for {
		sh.mu.Lock()
		it := sh.items[id]
		if it != nil && (it.busy || writingToo && it.writing) {
			waited = it
			sh.mu.Unlock()
			c.wait()
			continue
		}
		if waited == nil || !c.hostScheduled() {
			return it
		}
		// WaitUntil may yield: never with the shard lock held (a sim context
		// would deadlock the engine), so drop it and look again.
		at := waited.freeAt
		waited = nil
		sh.mu.Unlock()
		c.ctx.WaitUntil(at)
	}
}

// pin takes an item out of the LRU and holds it. Caller holds sh.mu and
// has checked !it.busy.
func (sh *shard) pin(it *Pin) {
	sh.unlink(it)
	it.pins++
}

// Pin returns the object for id, loading it through loader on a miss, and
// pins it. The caller releases the returned *Pin when done with the
// reference (Unpin, or Release after an edit); mutating callers mark it
// dirty. If another client is mid-load or mid-evict on id, Pin waits (in the
// client's virtual timeline) for the latch.
func (p *Pager) Pin(c *Client, loader Loader, id PageID) (interface{}, *Pin) {
	sh := p.shard(id)
	if it := sh.lockUnlatched(c, id, false); it != nil {
		obj, over := sh.hit(c, it)
		if over {
			p.evictToBudget(c, sh)
		}
		return obj, it
	}
	// Miss: latch a placeholder so concurrent getters wait rather than
	// issuing a duplicate load, then do the IO outside the lock.
	sh.stats.Misses++
	it := &Pin{id: id, sh: sh, pins: 1, busy: true, loader: loader}
	sh.items[id] = it
	sh.mu.Unlock()

	if c.span != nil {
		c.span.CacheMiss(c.ctx.Now())
	}
	prev := c.pushLayer(obs.LayerPager)
	obj, size := loader.Load(c, id)
	c.popLayer(prev)

	sh.mu.Lock()
	it.obj, it.size = obj, size
	it.busy, it.freeAt = false, c.ctx.Now()
	sh.used += size
	p.unlockEvict(c, sh)
	return obj, it
}

// hit counts and pins a resident, unlatched item for c, releases sh.mu,
// which the caller holds, and returns the item's object as it was under the
// lock (a Swap may replace it the moment the lock is gone) and whether the
// shard was over budget then.
func (sh *shard) hit(c *Client, it *Pin) (interface{}, bool) {
	sh.stats.Hits++
	sh.pin(it)
	obj, over := it.obj, sh.overBudget()
	sh.mu.Unlock()
	if c.span != nil {
		c.span.CacheHit(c.ctx.Now())
	}
	return obj, over
}

// unlockEvict releases sh.mu, which the caller holds, and evicts from sh
// until it is within budget if it was over budget under the lock.
func (p *Pager) unlockEvict(c *Client, sh *shard) {
	over := sh.overBudget()
	sh.mu.Unlock()
	if over {
		p.evictToBudget(c, sh)
	}
}

// Put inserts a freshly created object (not yet on disk) as dirty and pins
// it. It panics if id is already cached: fresh PageIDs come from the
// engine's allocator and are unique while live.
func (p *Pager) Put(c *Client, loader Loader, id PageID, obj interface{}, size int64) *Pin {
	sh := p.shard(id)
	sh.mu.Lock()
	if _, ok := sh.items[id]; ok {
		sh.mu.Unlock()
		panic(fmt.Sprintf("engine: Put of resident page %d", id))
	}
	it := &Pin{id: id, sh: sh, obj: obj, size: size, dirty: true, pins: 1, loader: loader}
	it.enc = it.encSize()
	sh.items[id] = it
	sh.used += size
	sh.addDirty(it.enc)
	p.unlockEvict(c, sh)
	return it
}

// PutClean inserts an object whose on-disk image is current (e.g. a node
// shell decoded from a partial read) and pins it; evicting it never writes.
// If id turned out to be resident already — two clients can race to decode
// the same cold node — the canonical resident object wins and is returned
// pinned; the caller must use the returned object, not its own candidate.
//
// Accounting: PutClean is the insert half of a probe-style access (TryPin
// miss → explicit partial load → PutClean), so the fresh-insert path counts
// the Miss for that access and the already-resident race path counts a Hit.
// Together with TryPin counting only true hits, every logical access
// produces exactly one Hits or Misses increment.
func (p *Pager) PutClean(c *Client, loader Loader, id PageID, obj interface{}, size int64) (interface{}, *Pin) {
	sh := p.shard(id)
	if it := sh.lockUnlatched(c, id, false); it != nil {
		obj, over := sh.hit(c, it)
		if over {
			p.evictToBudget(c, sh)
		}
		return obj, it
	}
	sh.stats.Misses++
	it := &Pin{id: id, sh: sh, obj: obj, size: size, pins: 1, loader: loader}
	sh.items[id] = it
	sh.used += size
	over := sh.overBudget()
	sh.mu.Unlock()
	if c.span != nil {
		c.span.CacheMiss(c.ctx.Now())
	}
	if over {
		p.evictToBudget(c, sh)
	}
	return obj, it
}

// TryPin returns and pins the object for id if it is resident, without
// consulting any loader on a miss; the *Pin is nil when it is not. Callers
// that load partial objects explicitly (the Bε-tree's segment reads) use
// this instead of Pin. A latched item counts as resident: TryPin waits for
// the latch and retries.
//
// A failed TryPin counts nothing: the probe-style caller follows up with a
// Pin or PutClean for the same logical access, and that call counts the
// Miss (counting both would double-count the access and inflate the miss
// ratio the experiments report).
func (p *Pager) TryPin(c *Client, id PageID) (interface{}, *Pin) {
	sh := p.shard(id)
	it := sh.lockUnlatched(c, id, false)
	if it == nil {
		sh.mu.Unlock()
		return nil, nil
	}
	obj, _ := sh.hit(c, it)
	return obj, it
}

// Get, Unpin and MarkDirty are Pin and the Pin's methods of those names
// keyed by id, for a caller that keeps no *Pin (the benchmark's pager
// ladder): Unpin and MarkDirty look id up again.
func (p *Pager) Get(c *Client, loader Loader, id PageID) interface{} {
	obj, _ := p.Pin(c, loader, id)
	return obj
}

// Unpin is (*Pin).Unpin of id's item.
func (p *Pager) Unpin(c *Client, id PageID) { p.resident(id).Unpin(c) }

// MarkDirty is (*Pin).MarkDirty of id's item.
func (p *Pager) MarkDirty(c *Client, id PageID, newSize int64) { p.resident(id).MarkDirty(c, newSize) }

// resident returns id's item, which must be resident.
func (p *Pager) resident(id PageID) *Pin {
	sh := p.shard(id)
	sh.mu.Lock()
	it := sh.items[id]
	sh.mu.Unlock()
	if it == nil {
		panic(fmt.Sprintf("engine: page %d is not resident", id))
	}
	return it
}

// Hold adds a pin to a pinned object.
func (it *Pin) Hold() {
	it.sh.mu.Lock()
	defer it.sh.mu.Unlock()
	it.sh.pin(it)
}

// Unpin releases one pin, returning the object to the LRU when the last one
// goes (which can trigger write-back eviction, charged to c).
func (it *Pin) Unpin(c *Client) {
	it.sh.mu.Lock()
	it.unpin()
	it.sh.p.unlockEvict(c, it.sh)
}

// MarkDirty flags the object as modified and updates its charged size
// (serialized sizes change as nodes gain and lose entries). The pin stays.
func (it *Pin) MarkDirty(c *Client, newSize int64) {
	it.sh.mu.Lock()
	it.markDirty(newSize)
	it.sh.p.unlockEvict(c, it.sh)
}

// Release is MarkDirty then Unpin under one lock: the object was edited and
// its holder is done with it.
func (it *Pin) Release(c *Client, newSize int64) {
	it.sh.mu.Lock()
	it.markDirty(newSize)
	it.unpin()
	it.sh.p.unlockEvict(c, it.sh)
}

// unpin drops one pin. Caller holds it.sh.mu.
func (it *Pin) unpin() {
	if it.pins <= 0 {
		it.sh.mu.Unlock()
		panic(fmt.Sprintf("engine: Unpin of unpinned page %d", it.id))
	}
	it.pins--
	if it.pins == 0 && !it.busy && !it.writing {
		it.sh.pushFront(it)
	}
}

// markDirty charges newSize and counts Store's length for the object as it
// is now in the dirty bytes. Caller holds it.sh.mu.
func (it *Pin) markDirty(newSize int64) {
	sh := it.sh
	sh.used += newSize - it.size
	it.size = newSize
	newEnc := it.encSize()
	if it.dirty {
		sh.addDirty(newEnc - it.enc)
	} else {
		it.dirty = true
		sh.addDirty(newEnc)
	}
	it.enc = newEnc
}

// Grow adds delta to the charged size of the clean object if the pin still
// holds obj: a reader published more of obj's on-disk image into it.
// Concurrent readers each add their own delta, so the order in which they
// arrive does not matter, and one whose object was swapped out meanwhile
// (Swap) adds nothing: the charge is the new object's. The pin stays.
func (it *Pin) Grow(c *Client, obj interface{}, delta int64) {
	it.replace(c, obj, obj, delta, true)
}

// Swap replaces the clean object old with new, charged size, and returns the
// object the pin holds afterwards: new, or whatever another reader swapped
// in first. A reader that has decoded more of an object than others hold
// builds it aside and swaps it in, instead of writing the object they are
// reading. The pin stays.
func (it *Pin) Swap(c *Client, old, new interface{}, size int64) interface{} {
	return it.replace(c, old, new, size, false)
}

// replace is Grow and Swap: if the pin holds old, it holds new from now on,
// charged size, or its charge plus size when grow is set.
func (it *Pin) replace(c *Client, old, new interface{}, size int64, grow bool) interface{} {
	sh := it.sh
	sh.mu.Lock()
	if it.obj == old {
		if grow {
			size += it.size
		}
		it.obj, sh.used, it.size = new, sh.used+size-it.size, size
	}
	cur := it.obj
	sh.p.unlockEvict(c, sh)
	return cur
}

// Drop discards id without write-back (the node was freed). It panics if
// the object is pinned by anyone; if the object is latched (being evicted),
// Drop waits the latch out — the page is gone either way.
func (p *Pager) Drop(c *Client, id PageID) {
	sh := p.shard(id)
	it := sh.lockUnlatched(c, id, true)
	defer sh.mu.Unlock()
	if it == nil {
		return
	}
	if it.pins > 0 {
		panic(fmt.Sprintf("engine: Drop of pinned page %d", id))
	}
	sh.remove(it)
}

// Flush writes back every dirty object (pinned or not) without evicting,
// charging the IO to c. Write-backs take the writing latch, not busy:
// concurrent readers keep hitting and pinning the object mid-flush (it is
// resident and, by the single-writer rule the caller must hold, immutable
// while its image streams out) — the snapshot-aware relaxation of the
// no-steal path, under which checkpoints used to stall every reader that
// touched a dirty frame.
func (p *Pager) Flush(c *Client) {
	for _, sh := range p.shards {
		// One sorted pass per round: snapshot the dirty ids, write them back
		// lowest first — write-back order and the recency a flush leaves
		// behind must not depend on map order, or every pager-backed
		// experiment's virtual time varies per run — and go round again
		// until a pass finds nothing (a Store can dirty another page).
		for {
			sh.mu.Lock()
			var ids []PageID
			for id, it := range sh.items {
				if it.dirty && !it.busy && !it.writing {
					ids = append(ids, id)
				}
			}
			sh.mu.Unlock()
			if len(ids) == 0 {
				break
			}
			slices.Sort(ids)
			for _, id := range ids {
				p.flushOne(c, sh, id)
			}
		}
	}
}

// flushOne writes back sh's page id if it is still resident, dirty and not
// already in the middle of an eviction or another write-back.
func (p *Pager) flushOne(c *Client, sh *shard, id PageID) {
	sh.mu.Lock()
	victim := sh.items[id]
	if victim == nil || !victim.dirty || victim.busy || victim.writing {
		sh.mu.Unlock()
		return
	}
	victim.writing = true
	sh.unlink(victim)
	sh.stats.Writebacks++
	sh.mu.Unlock()

	// A checkpoint's write-back stays the checkpoint's IO (layers are
	// numbered outermost first).
	prev := c.pushLayer(max(c.layer, obs.LayerPager))
	victim.loader.Store(c, victim.id, victim.obj)
	c.popLayer(prev)

	sh.mu.Lock()
	sh.addDirty(-victim.enc)
	victim.dirty = false
	victim.enc = 0
	victim.writing, victim.freeAt = false, c.ctx.Now()
	if victim.pins == 0 {
		sh.pushFront(victim)
	}
	sh.mu.Unlock()
}

// EvictAll writes back and drops every unpinned object (used by experiments
// to cold-start a phase), charging write-backs to c.
func (p *Pager) EvictAll(c *Client) {
	for _, sh := range p.shards {
		for p.evictOne(c, sh) {
		}
	}
}

// evictToBudget evicts LRU objects from sh until it is within budget (or
// nothing evictable remains — all residents pinned, or dirty under the
// no-steal policy), then records how far over budget the unevictable
// working set left it.
func (p *Pager) evictToBudget(c *Client, sh *shard) {
	for {
		sh.mu.Lock()
		over := sh.overBudget()
		sh.mu.Unlock()
		if !over || !p.evictOne(c, sh) {
			return
		}
	}
}

// evictOne evicts sh's LRU-tail object, writing it back first if dirty.
// The IO runs outside the lock under the item's busy latch. Returns false
// if nothing was evictable.
func (p *Pager) evictOne(c *Client, sh *shard) bool {
	sh.mu.Lock()
	it := sh.lru.prev
	if p.noSteal {
		// Skip dirty pages: they are unevictable until the next checkpoint.
		for it != &sh.lru && it.dirty {
			it = it.prev
		}
	}
	if it == &sh.lru {
		sh.mu.Unlock()
		return false
	}
	sh.unlink(it)
	it.busy = true
	dirty := it.dirty
	sh.stats.Evictions++
	if dirty {
		sh.stats.Writebacks++
	}
	sh.mu.Unlock()

	if c.span != nil {
		c.span.Evict(dirty, c.ctx.Now())
	}
	if dirty {
		prev := c.pushLayer(obs.LayerPager)
		c.evicting = true
		it.loader.Store(c, it.id, it.obj)
		c.evicting = false
		c.popLayer(prev)
	}

	sh.mu.Lock()
	it.freeAt = c.ctx.Now() // removal is what releases an eviction's latch
	sh.remove(it)
	sh.mu.Unlock()
	return true
}

// remove deletes an item from the shard. Caller holds sh.mu.
func (sh *shard) remove(it *Pin) {
	sh.unlink(it)
	if it.dirty {
		sh.addDirty(-it.enc)
	}
	delete(sh.items, it.id)
	sh.used -= it.size
}

package engine

import (
	"container/list"
	"fmt"
	"slices"
	"sync"

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
	// Store serializes and writes back a dirty object. The bytes it hands to
	// c.WriteAt are a fresh encoding it does not modify afterwards: during a
	// checkpoint the client keeps them until the journal is sealed.
	Store(c *Client, id PageID, obj interface{})
}

// StoreSizer is an optional Loader extension reporting the exact byte
// length Store would write for obj right now. The pager uses it to track
// the encoded size of the dirty set (DirtyBytes), which the durability
// layer compares against its journal capacity — charged (in-memory) sizes
// can be much smaller than the on-disk images a checkpoint must seal.
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

// item is one cached object. busy latches it during a load or an eviction:
// while busy, only the latching client touches obj, and every other client
// waits in shard.lockUnlatched. writing is the weaker write-back latch Flush
// uses: the object is resident and immutable while its image streams out, so
// readers may still hit and pin it — snapshot and point reads are never
// serialized behind the no-steal checkpoint's write-back (they effectively
// read the pre-image frame the flusher is copying from). Neither latched
// form is ever in the LRU.
type item struct {
	id      PageID
	obj     interface{}
	size    int64
	enc     int64 // while dirty: Store's byte length, counted in shard.dirtyBytes
	dirty   bool
	pins    int
	busy    bool
	writing bool
	freeAt  sim.Time // the latch holder's virtual instant when busy/writing last cleared
	loader  Loader
	elem    *list.Element // position in LRU list; nil while pinned or latched
}

// encSize returns the bytes Store would write for it's current object.
func (it *item) encSize() int64 {
	if ss, ok := it.loader.(StoreSizer); ok {
		return ss.StoreSize(it.obj)
	}
	return it.size
}

type shard struct {
	mu     sync.Mutex
	budget int64
	used   int64
	// dirtyBytes tracks the encoded (Store) size of dirty items. The
	// durability layer checkpoints before this approaches the journal
	// region size: the whole dirty set must fit in one sealed frame.
	dirtyBytes int64
	items      map[PageID]*item
	lru        *list.List // front = most recently used; holds only unpinned items
	stats      ShardStats
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
		p.shards[i] = &shard{
			budget: per,
			items:  make(map[PageID]*item),
			lru:    list.New(),
		}
	}
	return p
}

func (p *Pager) shard(id PageID) *shard {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return p.shards[(h>>32)%uint64(len(p.shards))]
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
// objects across all shards: the write-back volume the next checkpoint
// must seal into a journal frame under the no-steal policy.
func (p *Pager) DirtyBytes() int64 {
	var total int64
	for _, sh := range p.shards {
		sh.mu.Lock()
		total += sh.dirtyBytes
		sh.mu.Unlock()
	}
	return total
}

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
func (sh *shard) lockUnlatched(c *Client, id PageID, writingToo bool) *item {
	var waited *item
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
func (sh *shard) pin(it *item) {
	if it.elem != nil {
		sh.lru.Remove(it.elem)
		it.elem = nil
	}
	it.pins++
}

// Get returns the object for id, loading it through loader on a miss, and
// pins it. The caller must Unpin when done with the reference; mutating
// callers must also MarkDirty. If another client is mid-load or mid-evict
// on id, Get waits (in the client's virtual timeline) for the latch.
func (p *Pager) Get(c *Client, loader Loader, id PageID) interface{} {
	sh := p.shard(id)
	if it := sh.lockUnlatched(c, id, false); it != nil {
		sh.hit(c, it)
		p.evictToBudget(c, sh)
		return it.obj
	}
	// Miss: latch a placeholder so concurrent getters wait rather than
	// issuing a duplicate load, then do the IO outside the lock.
	sh.stats.Misses++
	it := &item{id: id, pins: 1, busy: true, loader: loader}
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
	sh.mu.Unlock()
	p.evictToBudget(c, sh)
	return obj
}

// hit counts and pins a resident, unlatched item for c and releases sh.mu,
// which the caller holds.
func (sh *shard) hit(c *Client, it *item) {
	sh.stats.Hits++
	sh.pin(it)
	sh.mu.Unlock()
	if c.span != nil {
		c.span.CacheHit(c.ctx.Now())
	}
}

// Put inserts a freshly created object (not yet on disk) as dirty and pins
// it. It panics if id is already cached: fresh PageIDs come from the
// engine's allocator and are unique while live.
func (p *Pager) Put(c *Client, loader Loader, id PageID, obj interface{}, size int64) {
	sh := p.shard(id)
	sh.mu.Lock()
	if _, ok := sh.items[id]; ok {
		sh.mu.Unlock()
		panic(fmt.Sprintf("engine: Put of resident page %d", id))
	}
	it := &item{id: id, obj: obj, size: size, dirty: true, pins: 1, loader: loader}
	it.enc = it.encSize()
	sh.items[id] = it
	sh.used += size
	sh.dirtyBytes += it.enc
	sh.mu.Unlock()
	p.evictToBudget(c, sh)
}

// PutClean inserts an object whose on-disk image is current (e.g. a node
// shell decoded from a partial read) and pins it; evicting it never writes.
// If id turned out to be resident already — two clients can race to decode
// the same cold node — the canonical resident object wins and is returned
// pinned; the caller must use the returned object, not its own candidate.
//
// Accounting: PutClean is the insert half of a probe-style access (TryGet
// miss → explicit partial load → PutClean), so the fresh-insert path counts
// the Miss for that access and the already-resident race path counts a Hit.
// Together with TryGet counting only true hits, every logical access
// produces exactly one Hits or Misses increment.
func (p *Pager) PutClean(c *Client, loader Loader, id PageID, obj interface{}, size int64) interface{} {
	sh := p.shard(id)
	if it := sh.lockUnlatched(c, id, false); it != nil {
		sh.hit(c, it)
		p.evictToBudget(c, sh)
		return it.obj
	}
	sh.stats.Misses++
	sh.items[id] = &item{id: id, obj: obj, size: size, pins: 1, loader: loader}
	sh.used += size
	sh.mu.Unlock()
	if c.span != nil {
		c.span.CacheMiss(c.ctx.Now())
	}
	p.evictToBudget(c, sh)
	return obj
}

// TryGet returns and pins the object for id if it is resident, without
// consulting any loader on a miss. Callers that load partial objects
// explicitly (the Bε-tree's segment reads) use this instead of Get. A
// latched item counts as resident: TryGet waits for the latch and retries.
//
// A failed TryGet counts nothing: the probe-style caller follows up with a
// Get or PutClean for the same logical access, and that call counts the
// Miss (counting both would double-count the access and inflate the miss
// ratio the experiments report).
func (p *Pager) TryGet(c *Client, id PageID) (interface{}, bool) {
	sh := p.shard(id)
	it := sh.lockUnlatched(c, id, false)
	if it == nil {
		sh.mu.Unlock()
		return nil, false
	}
	sh.hit(c, it)
	return it.obj, true
}

// Pin increments id's pin count; the object must be resident.
func (p *Pager) Pin(id PageID) {
	sh := p.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	it, ok := sh.items[id]
	if !ok || it.busy {
		panic(fmt.Sprintf("engine: Pin of non-resident page %d", id))
	}
	sh.pin(it)
}

// Unpin decrements id's pin count, returning the object to the LRU when it
// reaches zero (which can trigger write-back eviction, charged to c).
func (p *Pager) Unpin(c *Client, id PageID) {
	sh := p.shard(id)
	sh.mu.Lock()
	it, ok := sh.items[id]
	if !ok {
		sh.mu.Unlock()
		panic(fmt.Sprintf("engine: Unpin of non-resident page %d", id))
	}
	if it.pins <= 0 {
		sh.mu.Unlock()
		panic(fmt.Sprintf("engine: Unpin of unpinned page %d", id))
	}
	it.pins--
	if it.pins == 0 && !it.busy && !it.writing {
		it.elem = sh.lru.PushFront(it)
	}
	sh.mu.Unlock()
	p.evictToBudget(c, sh)
}

// MarkDirty flags id as modified and updates its charged size (serialized
// sizes change as nodes gain and lose entries). The caller must hold a pin.
func (p *Pager) MarkDirty(c *Client, id PageID, newSize int64) {
	sh := p.shard(id)
	sh.mu.Lock()
	it, ok := sh.items[id]
	if !ok {
		sh.mu.Unlock()
		panic(fmt.Sprintf("engine: MarkDirty of non-resident page %d", id))
	}
	newEnc := it.encSize()
	if it.dirty {
		sh.dirtyBytes += newEnc - it.enc
	} else {
		it.dirty = true
		sh.dirtyBytes += newEnc
	}
	it.enc = newEnc
	sh.used += newSize - it.size
	it.size = newSize
	sh.mu.Unlock()
	p.evictToBudget(c, sh)
}

// Resize updates id's charged size without marking it dirty (used when a
// clean object grows by absorbing more of its on-disk image). The caller
// must hold a pin.
func (p *Pager) Resize(c *Client, id PageID, newSize int64) {
	sh := p.shard(id)
	sh.mu.Lock()
	it, ok := sh.items[id]
	if !ok {
		sh.mu.Unlock()
		panic(fmt.Sprintf("engine: Resize of non-resident page %d", id))
	}
	if it.dirty {
		newEnc := it.encSize()
		sh.dirtyBytes += newEnc - it.enc
		it.enc = newEnc
	}
	sh.used += newSize - it.size
	it.size = newSize
	sh.mu.Unlock()
	p.evictToBudget(c, sh)
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
	if victim.elem != nil {
		sh.lru.Remove(victim.elem)
		victim.elem = nil
	}
	sh.stats.Writebacks++
	sh.mu.Unlock()

	prev := c.pushLayer(obs.LayerPager)
	victim.loader.Store(c, victim.id, victim.obj)
	c.popLayer(prev)

	sh.mu.Lock()
	sh.dirtyBytes -= victim.enc
	victim.dirty = false
	victim.enc = 0
	victim.writing, victim.freeAt = false, c.ctx.Now()
	if victim.pins == 0 {
		victim.elem = sh.lru.PushFront(victim)
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
		over := sh.used - sh.budget
		if over > sh.stats.PeakOver {
			sh.stats.PeakOver = over
		}
		sh.mu.Unlock()
		if over <= 0 || !p.evictOne(c, sh) {
			return
		}
	}
}

// evictOne evicts sh's LRU-tail object, writing it back first if dirty.
// The IO runs outside the lock under the item's busy latch. Returns false
// if nothing was evictable.
func (p *Pager) evictOne(c *Client, sh *shard) bool {
	sh.mu.Lock()
	elem := sh.lru.Back()
	if p.noSteal {
		// Skip dirty pages: they are unevictable until the next checkpoint.
		for elem != nil && elem.Value.(*item).dirty {
			elem = elem.Prev()
		}
	}
	if elem == nil {
		sh.mu.Unlock()
		return false
	}
	it := elem.Value.(*item)
	sh.lru.Remove(elem)
	it.elem = nil
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
		it.loader.Store(c, it.id, it.obj)
		c.popLayer(prev)
	}

	sh.mu.Lock()
	it.freeAt = c.ctx.Now() // removal is what releases an eviction's latch
	sh.remove(it)
	sh.mu.Unlock()
	return true
}

// remove deletes an item from the shard. Caller holds sh.mu.
func (sh *shard) remove(it *item) {
	if it.elem != nil {
		sh.lru.Remove(it.elem)
		it.elem = nil
	}
	if it.dirty {
		sh.dirtyBytes -= it.enc
	}
	delete(sh.items, it.id)
	sh.used -= it.size
}

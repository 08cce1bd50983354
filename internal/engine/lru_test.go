package engine

import (
	"fmt"
	"slices"
	"testing"

	"iomodels/internal/stats"
)

// lruLoader loads page id as the object int(id), charged the size the test
// set for it, and logs every write-back in order.
type lruLoader struct {
	sizes  map[PageID]int64
	stores []PageID
}

func (l *lruLoader) Load(_ *Client, id PageID) (interface{}, int64) { return int(id), l.sizes[id] }

func (l *lruLoader) Store(_ *Client, id PageID, _ interface{}) { l.stores = append(l.stores, id) }

// lruPage is the reference model's view of one resident page.
type lruPage struct {
	obj   int
	size  int64
	dirty bool
	pins  int
}

// lruModel is a reference LRU pager with one shard: a slice of the unpinned
// pages, most recently used first, evicted from the back.
type lruModel struct {
	budget, used int64
	noSteal      bool
	pages        map[PageID]*lruPage
	ring         []PageID
	stores       []PageID
	evicted      []PageID
}

func (m *lruModel) unlink(id PageID) {
	if i := slices.Index(m.ring, id); i >= 0 {
		m.ring = slices.Delete(m.ring, i, i+1)
	}
}

func (m *lruModel) pin(id PageID) {
	m.unlink(id)
	m.pages[id].pins++
}

func (m *lruModel) insert(id PageID, obj int, size int64, dirty bool) {
	m.pages[id] = &lruPage{obj: obj, size: size, dirty: dirty, pins: 1}
	m.used += size
}

func (m *lruModel) remove(id PageID) {
	m.unlink(id)
	m.used -= m.pages[id].size
	delete(m.pages, id)
}

// evictOne drops the least recently used page, writing it back if dirty;
// under no-steal it skips dirty pages.
func (m *lruModel) evictOne() bool {
	for i := len(m.ring) - 1; i >= 0; i-- {
		id := m.ring[i]
		if m.noSteal && m.pages[id].dirty {
			continue
		}
		if m.pages[id].dirty {
			m.stores = append(m.stores, id)
		}
		m.evicted = append(m.evicted, id)
		m.remove(id)
		return true
	}
	return false
}

func (m *lruModel) toBudget() {
	for m.used > m.budget && m.evictOne() {
	}
}

// flush writes back every dirty page, lowest id first; an unpinned one moves
// to the front as its write-back completes.
func (m *lruModel) flush() {
	var ids []PageID
	for id, pg := range m.pages {
		if pg.dirty {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		m.stores = append(m.stores, id)
		m.pages[id].dirty = false
		if m.pages[id].pins == 0 {
			m.unlink(id)
			m.ring = slices.Insert(m.ring, 0, id)
		}
	}
}

// ringOrder walks the shard's LRU ring from the front, checking its links, that
// each item on it is unpinned and unlatched and on it once, and that every
// unpinned, unlatched resident item is on it.
func (sh *shard) ringOrder(t *testing.T) []PageID {
	t.Helper()
	var order []PageID
	seen := map[*Pin]bool{}
	for it := sh.lru.next; it != &sh.lru; it = it.next {
		if seen[it] {
			t.Fatalf("page %d is on the LRU ring twice", it.id)
		}
		seen[it] = true
		if it.next.prev != it || it.prev.next != it {
			t.Fatalf("page %d: ring links broken", it.id)
		}
		if it.pins != 0 || it.busy || it.writing {
			t.Fatalf("page %d on the ring with %d pins, busy %v, writing %v", it.id, it.pins, it.busy, it.writing)
		}
		if sh.items[it.id] != it {
			t.Fatalf("page %d on the ring is not resident", it.id)
		}
		order = append(order, it.id)
	}
	for id, it := range sh.items {
		if it.pins == 0 && !it.busy && !it.writing && !seen[it] {
			t.Fatalf("unpinned page %d is not on the LRU ring", id)
		}
	}
	return order
}

// TestLRUOrderMatchesModel drives seeded random sequences of every pager
// operation against the reference model, under steal and no-steal: after
// every operation the ring order, the resident set, the pages evicted and
// the write-back sequence must be the model's.
func TestLRUOrderMatchesModel(t *testing.T) {
	const pages, budget, ops = 12, 60, 3000
	for _, noSteal := range []bool{false, true} {
		for seed := uint64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("nosteal=%v/seed=%d", noSteal, seed), func(t *testing.T) {
				rng := stats.NewRNG(seed)
				p, c := newTestPager(budget)
				p.noSteal = noSteal
				sh := p.shards[0]
				l := &lruLoader{sizes: map[PageID]int64{}}
				m := &lruModel{budget: budget, noSteal: noSteal, pages: map[PageID]*lruPage{}}
				gen := 1000
				held := map[PageID]*Pin{} // a pinned page's Pin
				for step := 0; step < ops; step++ {
					id := PageID(rng.Intn(pages))
					size := int64(4 + rng.Intn(13))
					pg := m.pages[id]
					pinned := pg != nil && pg.pins > 0
					var before []PageID
					for x := range m.pages {
						before = append(before, x)
					}
					slices.Sort(before)
					m.evicted = nil
					var op string
					switch k := rng.Intn(12); {
					case k == 0 || k == 1:
						op = "Get"
						if pg == nil {
							l.sizes[id] = size
							m.insert(id, int(id), size, false)
						} else {
							m.pin(id)
						}
						_, held[id] = p.Pin(c, l, id)
						m.toBudget()
					case k == 2:
						op = "TryPin"
						_, pin := p.TryPin(c, id)
						if (pin != nil) != (pg != nil) {
							t.Fatalf("step %d: TryPin(%d) = %v, model resident %v", step, id, pin, pg != nil)
						}
						if pg != nil {
							m.pin(id)
							held[id] = pin
						}
					case k == 3:
						op = "PutClean"
						gen++
						if pg == nil {
							m.insert(id, gen, size, false)
						} else {
							m.pin(id)
						}
						_, held[id] = p.PutClean(c, l, id, gen, size)
						m.toBudget()
					case k == 4:
						op = "Put"
						if pg != nil {
							continue
						}
						gen++
						m.insert(id, gen, size, true)
						held[id] = p.Put(c, l, id, gen, size)
						m.toBudget()
					case k == 5 || k == 6 || k == 7:
						op = "Unpin"
						if !pinned {
							continue
						}
						if pg.pins--; pg.pins == 0 {
							m.ring = slices.Insert(m.ring, 0, id)
						}
						held[id].Unpin(c)
						m.toBudget()
					case k == 8:
						op = "MarkDirty"
						if !pinned {
							continue
						}
						pg.dirty = true
						m.used += size - pg.size
						pg.size = size
						m.toBudget()
						if rng.Intn(2) == 0 {
							held[id].MarkDirty(c, size)
							break
						}
						// Release is MarkDirty then Unpin: the model does both.
						op = "Release"
						if pg.pins--; pg.pins == 0 {
							m.ring = slices.Insert(m.ring, 0, id)
						}
						held[id].Release(c, size)
						m.toBudget()
					case k == 9:
						switch rng.Intn(3) {
						case 0:
							op = "Flush"
							m.flush()
							p.Flush(c)
						case 1:
							op = "EvictAll"
							for m.evictOne() {
							}
							p.EvictAll(c)
						default:
							op = "Drop"
							if pg == nil || pinned {
								continue
							}
							m.remove(id)
							p.Drop(c, id)
						}
					case k == 10:
						op = "Swap"
						if !pinned {
							continue
						}
						gen++
						old := pg.obj
						if rng.Intn(4) == 0 {
							old = -1 // a reader that lost the race swaps nothing
						} else {
							m.used += size - pg.size
							pg.obj, pg.size = gen, size
						}
						if got := held[id].Swap(c, old, gen, size); got != pg.obj {
							t.Fatalf("step %d: Swap(%d) returned %v, model holds %d", step, id, got, pg.obj)
						}
						m.toBudget()
					default:
						op = "Grow"
						if !pinned {
							continue
						}
						m.used += size
						pg.size += size
						held[id].Grow(c, pg.obj, size)
						m.toBudget()
					}

					where := fmt.Sprintf("step %d (%s %d)", step, op, id)
					if got := sh.ringOrder(t); !slices.Equal(got, m.ring) {
						t.Fatalf("%s: ring %v, model %v", where, got, m.ring)
					}
					if !slices.Equal(l.stores, m.stores) {
						t.Fatalf("%s: write-backs %v, model %v", where, l.stores, m.stores)
					}
					// Both evict from the back of the same ring, so the same
					// victims were evicted in the same order.
					var evicted []PageID
					for _, x := range before {
						if !p.Contains(x) && !(op == "Drop" && x == id) {
							evicted = append(evicted, x)
						}
					}
					want := slices.Clone(m.evicted)
					slices.Sort(want)
					if !slices.Equal(evicted, want) {
						t.Fatalf("%s: evicted %v, model %v", where, evicted, want)
					}
					if len(sh.items) != len(m.pages) || p.Used() != m.used {
						t.Fatalf("%s: %d pages, %d bytes resident; model %d, %d", where, len(sh.items), p.Used(), len(m.pages), m.used)
					}
				}
			})
		}
	}
}

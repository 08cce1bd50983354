// Package lsm implements a leveled log-structured merge tree in the style
// of LevelDB — the third write-optimized dictionary family the paper
// discusses alongside Bε-trees (§1: "LevelDB's LSM-tree uses 2 MiB SSTables
// for all workloads"). It serves as an extra baseline in the
// write-amplification experiment (E12) and the examples.
//
// Structure: an in-memory memtable absorbs updates; when full it is written
// as a sorted run (SSTable) into level 0. Level 0 runs may overlap; levels
// 1..k hold non-overlapping SSTables with per-level byte budgets growing by
// GrowthFactor. When a level overflows, one SSTable is merged into the
// overlapping tables of the next level (tombstones are dropped when the
// merge reaches the bottom). All SSTable reads and writes go through the
// simulated disk, so write amplification is measured, not modeled.
package lsm

import (
	"fmt"
	"sort"

	"iomodels/internal/engine"
	"iomodels/internal/kv"
)

// Config shapes a tree.
type Config struct {
	// MemtableBytes is the in-memory buffer budget before a flush.
	MemtableBytes int
	// SSTableBytes is the target size of one sorted run (LevelDB: 2 MiB).
	SSTableBytes int
	// GrowthFactor is the per-level size ratio (LevelDB: 10).
	GrowthFactor int
	// Level0Runs is how many runs level 0 may hold before compacting.
	Level0Runs int
	// BlockBytes is the read granularity for point lookups within a table.
	BlockBytes int
}

// DefaultConfig mirrors LevelDB's shape at reduced scale.
func DefaultConfig() Config {
	return Config{
		MemtableBytes: 1 << 20,
		SSTableBytes:  2 << 20,
		GrowthFactor:  10,
		Level0Runs:    4,
		BlockBytes:    4 << 10,
	}
}

func (c Config) validate() error {
	if c.MemtableBytes <= 0 || c.SSTableBytes <= 0 || c.GrowthFactor < 2 || c.Level0Runs < 1 || c.BlockBytes <= 0 {
		return fmt.Errorf("lsm: invalid config")
	}
	return nil
}

// entry is a memtable/SSTable record; a nil value with tombstone set marks
// a deletion.
type entry struct {
	key       []byte
	value     []byte
	tombstone bool
}

func (e entry) size() int { return kv.EncodedEntrySize(e.key, e.value) + 1 }

// table is the in-memory index of one on-disk SSTable.
type table struct {
	off     int64
	size    int64
	minKey  []byte
	maxKey  []byte
	count   int
	blockIx [][]byte // first key of each BlockBytes block, for lookup reads
}

// Tree is a leveled LSM-tree on a shared storage engine. Mutations run on
// the engine's owner client (single writer); concurrent reads go through
// per-client Sessions.
type Tree struct {
	cfg    Config
	eng    *engine.Engine
	owner  *engine.Client
	mem    []entry // sorted by key
	memB   int
	levels [][]*table // levels[0] newest-first runs; levels[i>0] sorted, disjoint
	items  int

	// LogicalBytesInserted accumulates payload bytes of Put calls.
	LogicalBytesInserted int64
	// Compactions counts merge operations.
	Compactions int64
}

// New creates an empty tree on the engine's device.
func New(cfg Config, eng *engine.Engine) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Tree{
		cfg:   cfg,
		eng:   eng,
		owner: eng.Owner(),
	}, nil
}

// Engine returns the storage engine backing the tree.
func (t *Tree) Engine() *engine.Engine { return t.eng }

// Items returns an upper bound on live keys (exact after a full compaction;
// overwrites and tombstones in upper levels are not yet deduplicated).
func (t *Tree) Items() int { return t.items }

// Levels returns the number of populated levels (including L0).
func (t *Tree) Levels() int { return len(t.levels) }

// memFind returns the position of key in the memtable.
func (t *Tree) memFind(key []byte) (int, bool) {
	i := sort.Search(len(t.mem), func(i int) bool {
		return kv.Compare(t.mem[i].key, key) >= 0
	})
	if i < len(t.mem) && kv.Compare(t.mem[i].key, key) == 0 {
		return i, true
	}
	return i, false
}

func (t *Tree) memInsert(e entry) {
	i, found := t.memFind(e.key)
	if found {
		t.memB += e.size() - t.mem[i].size()
		t.mem[i] = e
	} else {
		t.mem = append(t.mem, entry{})
		copy(t.mem[i+1:], t.mem[i:])
		t.mem[i] = e
		t.memB += e.size()
	}
	if t.memB > t.cfg.MemtableBytes {
		t.flushMemtable()
	}
}

// Put inserts or replaces key.
func (t *Tree) Put(key, value []byte) {
	if len(key) == 0 {
		panic("lsm: empty key")
	}
	t.LogicalBytesInserted += int64(len(key) + len(value))
	t.memInsert(entry{
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
	})
}

// Delete writes a tombstone for key. It always returns true: the tombstone
// is accepted whether or not the key is present below.
func (t *Tree) Delete(key []byte) bool {
	t.memInsert(entry{key: append([]byte(nil), key...), tombstone: true})
	return true
}

// Get returns the value for key: memtable, then L0 runs newest-first, then
// one candidate table per deeper level.
func (t *Tree) Get(key []byte) ([]byte, bool) { return t.GetAs(t.owner, key) }

// GetAs is Get charged to c.
func (t *Tree) GetAs(c *engine.Client, key []byte) ([]byte, bool) {
	if i, ok := t.memFind(key); ok {
		e := t.mem[i]
		if e.tombstone {
			return nil, false
		}
		return e.value, true
	}
	for li, level := range t.levels {
		for _, tb := range t.candidates(li, level, key) {
			e, found := t.tableGet(c, tb, key)
			if found {
				if e.tombstone {
					return nil, false
				}
				return e.value, true
			}
		}
	}
	return nil, false
}

// candidates returns the tables in a level that may contain key, in
// newest-first order for L0.
func (t *Tree) candidates(li int, level []*table, key []byte) []*table {
	var out []*table
	if li == 0 {
		for _, tb := range level {
			if kv.Compare(key, tb.minKey) >= 0 && kv.Compare(key, tb.maxKey) <= 0 {
				out = append(out, tb)
			}
		}
		return out
	}
	i := sort.Search(len(level), func(i int) bool {
		return kv.Compare(level[i].maxKey, key) >= 0
	})
	if i < len(level) && kv.Compare(key, level[i].minKey) >= 0 {
		out = append(out, level[i])
	}
	return out
}

// tableGet performs a point lookup inside one SSTable: the in-memory block
// index narrows the key to one block, which is read and scanned — one IO of
// BlockBytes, as in LevelDB.
func (t *Tree) tableGet(c *engine.Client, tb *table, key []byte) (entry, bool) {
	bi := sort.Search(len(tb.blockIx), func(i int) bool {
		return kv.Compare(tb.blockIx[i], key) > 0
	}) - 1
	if bi < 0 {
		return entry{}, false
	}
	start := int64(bi) * int64(t.cfg.BlockBytes)
	size := int64(t.cfg.BlockBytes)
	if start+size > tb.size {
		size = tb.size - start
	}
	buf := c.Read(tb.off+start, int(size))
	// Entries never span blocks (the writer pads); scan the block.
	d := kv.Dec{Buf: buf}
	for d.Off < len(buf) {
		marker := d.U8()
		if marker == 0 || d.Err != nil { // padding
			break
		}
		e := entry{tombstone: marker == 2}
		e.key = d.Bytes()
		e.value = d.Bytes()
		if d.Err != nil {
			panic(fmt.Sprintf("lsm: corrupt block in table at %d", tb.off))
		}
		c := kv.Compare(e.key, key)
		if c == 0 {
			return e, true
		}
		if c > 0 {
			break
		}
	}
	return entry{}, false
}

// flushMemtable writes the memtable as a new L0 run.
func (t *Tree) flushMemtable() {
	if len(t.mem) == 0 {
		return
	}
	run := t.writeTable(t.mem)
	if len(t.levels) == 0 {
		t.levels = append(t.levels, nil)
	}
	// Newest first.
	t.levels[0] = append([]*table{run}, t.levels[0]...)
	t.items += len(t.mem)
	t.mem = nil
	t.memB = 0
	t.maybeCompact()
}

// Flush forces the memtable to disk (end of a load phase).
func (t *Tree) Flush() { t.flushMemtable() }

// writeTable serializes sorted entries into one on-disk SSTable, padding so
// no entry spans a BlockBytes boundary, and returns its index.
func (t *Tree) writeTable(entries []entry) *table {
	var e kv.Enc
	tb := &table{count: len(entries)}
	tb.minKey = append([]byte(nil), entries[0].key...)
	tb.maxKey = append([]byte(nil), entries[len(entries)-1].key...)
	for _, ent := range entries {
		sz := ent.size()
		blockPos := len(e.Buf) % t.cfg.BlockBytes
		if blockPos+sz > t.cfg.BlockBytes && blockPos != 0 {
			// Pad to the next block boundary.
			pad := t.cfg.BlockBytes - blockPos
			e.Buf = append(e.Buf, make([]byte, pad)...)
		}
		if len(e.Buf)%t.cfg.BlockBytes == 0 {
			tb.blockIx = append(tb.blockIx, append([]byte(nil), ent.key...))
		}
		marker := uint8(1)
		if ent.tombstone {
			marker = 2
		}
		e.U8(marker)
		e.Bytes(ent.key)
		e.Bytes(ent.value)
	}
	tb.size = int64(len(e.Buf))
	tb.off = t.eng.Alloc(tb.size)
	t.owner.WriteAt(e.Buf, tb.off)
	return tb
}

// readTable loads a whole SSTable (used by compaction and scans).
func (t *Tree) readTable(c *engine.Client, tb *table) []entry {
	buf := c.Read(tb.off, int(tb.size))
	d := kv.Dec{Buf: buf}
	out := make([]entry, 0, tb.count)
	for len(out) < tb.count {
		marker := d.U8()
		if marker == 0 {
			// Skip padding: it runs from the byte we just read to the next
			// block boundary.
			padStart := d.Off - 1
			next := (padStart/t.cfg.BlockBytes + 1) * t.cfg.BlockBytes
			if next >= len(buf) {
				panic(fmt.Sprintf("lsm: table at %d truncated: %d/%d entries", tb.off, len(out), tb.count))
			}
			d.Off = next
			continue
		}
		e := entry{tombstone: marker == 2}
		e.key = d.Bytes()
		e.value = d.Bytes()
		if d.Err != nil {
			panic(fmt.Sprintf("lsm: corrupt table at %d: %v", tb.off, d.Err))
		}
		out = append(out, e)
	}
	return out
}

func (t *Tree) dropTable(tb *table) {
	t.eng.Free(tb.off, tb.size)
}

// levelBudget returns the byte budget of level li (L0 is counted in runs).
func (t *Tree) levelBudget(li int) int64 {
	b := int64(t.cfg.SSTableBytes) * int64(t.cfg.GrowthFactor)
	for i := 1; i < li; i++ {
		b *= int64(t.cfg.GrowthFactor)
	}
	return b
}

func levelBytes(level []*table) int64 {
	var s int64
	for _, tb := range level {
		s += tb.size
	}
	return s
}

// maybeCompact restores the level invariants after a flush.
func (t *Tree) maybeCompact() {
	for li := 0; li < len(t.levels); li++ {
		if li == 0 {
			for len(t.levels[0]) > t.cfg.Level0Runs {
				t.compactInto(0, len(t.levels[0])-1) // oldest run first
			}
			continue
		}
		for levelBytes(t.levels[li]) > t.levelBudget(li) {
			t.compactInto(li, 0) // first table (round-robin would also do)
		}
	}
}

// compactInto merges table ti of level li into level li+1.
func (t *Tree) compactInto(li, ti int) {
	t.Compactions++
	src := t.levels[li][ti]
	t.levels[li] = append(t.levels[li][:ti], t.levels[li][ti+1:]...)
	if li+1 >= len(t.levels) {
		t.levels = append(t.levels, nil)
	}
	next := t.levels[li+1]

	// Find overlapping tables in the next level.
	lo := sort.Search(len(next), func(i int) bool {
		return kv.Compare(next[i].maxKey, src.minKey) >= 0
	})
	hi := lo
	for hi < len(next) && kv.Compare(next[hi].minKey, src.maxKey) <= 0 {
		hi++
	}
	overlapping := next[lo:hi]

	// Merge: src is newer than everything below it.
	merged := t.readTable(t.owner, src)
	t.dropTable(src)
	for _, tb := range overlapping {
		merged = mergeRuns(merged, t.readTable(t.owner, tb))
		t.dropTable(tb)
	}
	bottom := li+1 == len(t.levels)-1 && hi == len(next)
	if bottom {
		merged = dropTombstones(merged)
	}

	// Rewrite as SSTable-sized chunks.
	var newTables []*table
	for start := 0; start < len(merged); {
		end, bytes := start, 0
		for end < len(merged) && bytes < t.cfg.SSTableBytes {
			bytes += merged[end].size()
			end++
		}
		newTables = append(newTables, t.writeTable(merged[start:end]))
		start = end
	}
	out := make([]*table, 0, len(next)-(hi-lo)+len(newTables))
	out = append(out, next[:lo]...)
	out = append(out, newTables...)
	out = append(out, next[hi:]...)
	t.levels[li+1] = out
}

// mergeRuns merges two sorted runs; newer wins on key collisions.
func mergeRuns(newer, older []entry) []entry {
	out := make([]entry, 0, len(newer)+len(older))
	i, j := 0, 0
	for i < len(newer) && j < len(older) {
		c := kv.Compare(newer[i].key, older[j].key)
		switch {
		case c < 0:
			out = append(out, newer[i])
			i++
		case c > 0:
			out = append(out, older[j])
			j++
		default:
			out = append(out, newer[i])
			i++
			j++
		}
	}
	out = append(out, newer[i:]...)
	out = append(out, older[j:]...)
	return out
}

func dropTombstones(entries []entry) []entry {
	out := entries[:0]
	for _, e := range entries {
		if !e.tombstone {
			out = append(out, e)
		}
	}
	return out
}

// Scan calls fn for each live entry with lo <= key < hi in key order (hi
// nil = unbounded), merging the memtable and every level.
func (t *Tree) Scan(lo, hi []byte, fn func(key, value []byte) bool) {
	t.ScanAs(t.owner, lo, hi, fn)
}

// ScanAs is Scan charged to c.
func (t *Tree) ScanAs(c *engine.Client, lo, hi []byte, fn func(key, value []byte) bool) {
	// Collect all runs, newest first.
	var runs [][]entry
	if len(t.mem) > 0 {
		runs = append(runs, t.mem)
	}
	for li, level := range t.levels {
		if li == 0 {
			for _, tb := range level {
				runs = append(runs, t.readTable(c, tb))
			}
			continue
		}
		var run []entry
		for _, tb := range level {
			if hi != nil && kv.Compare(tb.minKey, hi) >= 0 {
				break
			}
			if lo != nil && kv.Compare(tb.maxKey, lo) < 0 {
				continue
			}
			run = append(run, t.readTable(c, tb)...)
		}
		if len(run) > 0 {
			runs = append(runs, run)
		}
	}
	var acc []entry
	for i := len(runs) - 1; i >= 0; i-- { // oldest to newest: newer wins
		acc = mergeRuns(runs[i], acc)
	}
	for _, e := range acc {
		if lo != nil && kv.Compare(e.key, lo) < 0 {
			continue
		}
		if hi != nil && kv.Compare(e.key, hi) >= 0 {
			break
		}
		if e.tombstone {
			continue
		}
		if !fn(e.key, e.value) {
			return
		}
	}
}

package workload

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"iomodels/internal/kv"
)

func TestKeyDeterministicAndUnique(t *testing.T) {
	spec := DefaultSpec()
	seen := map[string]bool{}
	for i := uint64(0); i < 10000; i++ {
		k := spec.Key(i)
		if len(k) != spec.KeyBytes {
			t.Fatalf("key length %d", len(k))
		}
		if seen[string(k)] {
			t.Fatalf("duplicate key for id %d", i)
		}
		seen[string(k)] = true
		if !bytes.Equal(k, spec.Key(i)) {
			t.Fatal("key not deterministic")
		}
	}
}

func TestKeysAreSpread(t *testing.T) {
	// Bit-mixed keys from sequential ids must land all over the key space:
	// sorting 1000 of them should interleave, not preserve id order.
	spec := DefaultSpec()
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = spec.Key(uint64(i))
	}
	pos := make([]int, len(keys))
	order := make([][]byte, len(keys))
	copy(order, keys)
	sort.Slice(order, func(i, j int) bool { return bytes.Compare(order[i], order[j]) < 0 })
	for i, k := range keys {
		for j, o := range order {
			if bytes.Equal(k, o) {
				pos[i] = j
			}
		}
	}
	inOrder := 0
	for i := 1; i < len(pos); i++ {
		if pos[i] > pos[i-1] {
			inOrder++
		}
	}
	if inOrder > 600 {
		t.Fatalf("keys nearly id-ordered: %d/999 ascending pairs", inOrder)
	}
}

func TestSequentialKeyOrdered(t *testing.T) {
	spec := DefaultSpec()
	prev := spec.SequentialKey(0)
	for i := uint64(1); i < 1000; i++ {
		k := spec.SequentialKey(i)
		if bytes.Compare(prev, k) >= 0 {
			t.Fatalf("sequential keys out of order at %d", i)
		}
		prev = k
	}
}

func TestValueDeterministic(t *testing.T) {
	spec := DefaultSpec()
	if !bytes.Equal(spec.Value(42), spec.Value(42)) {
		t.Fatal("value not deterministic")
	}
	if bytes.Equal(spec.Value(42), spec.Value(43)) {
		t.Fatal("adjacent values identical")
	}
	if len(spec.Value(7)) != spec.ValueBytes {
		t.Fatal("value length wrong")
	}
}

func TestStreamMixProportions(t *testing.T) {
	mix := Mix{Puts: 5, Gets: 3, Deletes: 1, Scans: 1}
	s := NewStream(DefaultSpec(), 9, 1000, mix, 0)
	counts := map[OpKind]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		op := s.Next()
		counts[op.Kind]++
		if op.ID >= 1000 {
			t.Fatalf("id %d out of population", op.ID)
		}
	}
	if frac := float64(counts[OpPut]) / n; frac < 0.45 || frac > 0.55 {
		t.Fatalf("put fraction %v", frac)
	}
	if frac := float64(counts[OpScan]) / n; frac < 0.07 || frac > 0.13 {
		t.Fatalf("scan fraction %v", frac)
	}
	if counts[OpUpsert] != 0 {
		t.Fatal("unexpected upserts")
	}
}

func TestStreamZipfSkew(t *testing.T) {
	s := NewStream(DefaultSpec(), 9, 10000, Mix{Gets: 1}, 0.99)
	counts := map[uint64]int{}
	for i := 0; i < 30000; i++ {
		counts[s.Next().ID]++
	}
	if counts[0] < 100 {
		t.Fatalf("rank 0 drawn only %d times; not skewed", counts[0])
	}
}

func TestStreamDeterminism(t *testing.T) {
	mk := func() []Op {
		s := NewStream(DefaultSpec(), 1234, 500, Mix{Puts: 1, Gets: 1}, 0)
		ops := make([]Op, 100)
		for i := range ops {
			ops[i] = s.Next()
		}
		return ops
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stream diverged at %d", i)
		}
	}
}

// mapDict is a reference Dictionary.
type mapDict struct{ m map[string][]byte }

func (d *mapDict) Put(k, v []byte) { d.m[string(k)] = append([]byte(nil), v...) }
func (d *mapDict) Get(k []byte) ([]byte, bool) {
	v, ok := d.m[string(k)]
	return v, ok
}
func (d *mapDict) Scan(lo, hi []byte, fn func(k, v []byte) bool) {
	var keys []string
	for k := range d.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if lo != nil && k < string(lo) {
			continue
		}
		if hi != nil && k >= string(hi) {
			break
		}
		if !fn([]byte(k), d.m[k]) {
			return
		}
	}
}

func TestLoadAndApply(t *testing.T) {
	spec := DefaultSpec()
	d := &mapDict{m: map[string][]byte{}}
	Load(d, spec, 500)
	if len(d.m) != 500 {
		t.Fatalf("loaded %d", len(d.m))
	}
	v, ok := d.Get(spec.Key(123))
	if !ok || !bytes.Equal(v, spec.Value(123)) {
		t.Fatal("load content wrong")
	}
	Apply(d, spec, Op{Kind: OpPut, ID: 1000})
	if _, ok := d.Get(spec.Key(1000)); !ok {
		t.Fatal("apply put failed")
	}
	Apply(d, spec, Op{Kind: OpGet, ID: 1})
	Apply(d, spec, Op{Kind: OpScan, ID: 1, Len: 5})
}

func TestApplyPanicsOnDelete(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Apply(&mapDict{m: map[string][]byte{}}, DefaultSpec(), Op{Kind: OpDelete})
}

// delMapDict extends mapDict with Delete and records upsert calls.
type delMapDict struct {
	mapDict
	deletes int
	upserts int
}

func (d *delMapDict) Delete(k []byte) bool {
	_, ok := d.m[string(k)]
	delete(d.m, string(k))
	d.deletes++
	return ok
}

func (d *delMapDict) Upsert(k []byte, delta int64) {
	d.upserts++
	var cur uint64
	if old, ok := d.m[string(k)]; ok && len(old) == 8 {
		cur = bigEndianU64(old)
	}
	v := make([]byte, 8)
	putBigEndianU64(v, cur+uint64(delta))
	d.m[string(k)] = v
}

func bigEndianU64(b []byte) uint64 {
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}

func putBigEndianU64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

func TestApplyDeleteUpsertRMW(t *testing.T) {
	spec := DefaultSpec()
	d := &delMapDict{mapDict: mapDict{m: map[string][]byte{}}}

	// Delete routes through the Deleter extension.
	Apply(&d.mapDict, spec, Op{Kind: OpPut, ID: 1})
	Apply(d, spec, Op{Kind: OpDelete, ID: 1})
	if d.deletes != 1 {
		t.Fatal("delete not routed through Deleter")
	}
	if _, ok := d.Get(spec.Key(1)); ok {
		t.Fatal("key survived delete")
	}

	// Upsert uses the Upserter extension when present: three +1 deltas.
	for i := 0; i < 3; i++ {
		Apply(d, spec, Op{Kind: OpUpsert, ID: 2})
	}
	if d.upserts != 3 {
		t.Fatalf("upserts routed %d times, want 3", d.upserts)
	}
	if v, ok := d.Get(spec.Key(2)); !ok || bigEndianU64(v) != 3 {
		t.Fatalf("upsert counter = %v, want 3", v)
	}

	// Without Upserter, the same ops fall back to read-modify-write and
	// reach the same counter value.
	plain := &mapDict{m: map[string][]byte{}}
	for i := 0; i < 3; i++ {
		Apply(plain, spec, Op{Kind: OpUpsert, ID: 2})
	}
	if v, ok := plain.Get(spec.Key(2)); !ok || bigEndianU64(v) != 3 {
		t.Fatalf("fallback upsert counter = %v, want 3", v)
	}

	// RMW writes a value derived from the read one: the first RMW XORs the
	// stored first byte into the fresh value (changing it, since the stored
	// value IS the fresh value), and a second RMW flips it back.
	Apply(plain, spec, Op{Kind: OpPut, ID: 5})
	Apply(plain, spec, Op{Kind: OpRMW, ID: 5})
	after1, _ := plain.Get(spec.Key(5))
	first := append([]byte(nil), after1...)
	if spec.Value(5)[0] != 0 && bytes.Equal(first, spec.Value(5)) {
		t.Fatal("RMW wrote the plain value; derivation did not use the read")
	}
	Apply(plain, spec, Op{Kind: OpRMW, ID: 5})
	after2, _ := plain.Get(spec.Key(5))
	if !bytes.Equal(after2, spec.Value(5)) {
		t.Fatalf("second RMW did not round-trip the derivation: %x", after2[:4])
	}
	if _, ok := plain.Get(spec.Key(6)); ok {
		t.Fatal("stray key")
	}
	Apply(plain, spec, Op{Kind: OpRMW, ID: 6}) // RMW of absent key = plain insert
	if v, ok := plain.Get(spec.Key(6)); !ok || !bytes.Equal(v, spec.Value(6)) {
		t.Fatal("RMW of absent key should insert the plain value")
	}
}

func TestStreamRMWMix(t *testing.T) {
	mix := Mix{Gets: 5, RMWs: 5}
	s := NewStream(DefaultSpec(), 11, 1000, mix, 0)
	counts := map[OpKind]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[s.Next().Kind]++
	}
	if frac := float64(counts[OpRMW]) / n; frac < 0.45 || frac > 0.55 {
		t.Fatalf("rmw fraction %v, want ~0.5", frac)
	}
	if counts[OpGet]+counts[OpRMW] != n {
		t.Fatalf("unexpected op kinds: %v", counts)
	}
}

// TestStreamZipfShape checks the distribution's shape, not just "rank 0 is
// hot": frequencies decay with rank roughly like rank^-theta (we check the
// ratio between rank bands), and the head's share grows with theta.
func TestStreamZipfShape(t *testing.T) {
	const pop = 10000
	const draws = 200000
	sample := func(theta float64) []int {
		s := NewStream(DefaultSpec(), 17, pop, Mix{Gets: 1}, theta)
		counts := make([]int, pop)
		for i := 0; i < draws; i++ {
			counts[s.Next().ID]++
		}
		return counts
	}
	headShare := func(counts []int, k int) float64 {
		head := 0
		for _, c := range counts[:k] {
			head += c
		}
		return float64(head) / draws
	}

	skewed := sample(0.99)
	// Monotone-ish decay: each decade of ranks outweighs the next.
	band := func(counts []int, lo, hi int) int {
		s := 0
		for _, c := range counts[lo:hi] {
			s += c
		}
		return s
	}
	if !(band(skewed, 0, 10) > band(skewed, 10, 100) && band(skewed, 10, 100) > band(skewed, 1000, 1090)) {
		t.Fatalf("zipf bands not decaying: first10=%d next90=%d band@1000=%d",
			band(skewed, 0, 10), band(skewed, 10, 100), band(skewed, 1000, 1090))
	}
	// With theta=0.99 over 10k keys the top 1% of ranks draws the majority
	// of accesses (classic YCSB hotspot); uniform draws give it ~1%.
	if share := headShare(skewed, pop/100); share < 0.3 {
		t.Fatalf("theta=0.99 head share %.3f, want >= 0.3", share)
	}
	mild := sample(0.5)
	uniform := sample(0)
	if !(headShare(skewed, pop/100) > headShare(mild, pop/100) && headShare(mild, pop/100) > headShare(uniform, pop/100)) {
		t.Fatalf("head share not increasing with theta: %.3f / %.3f / %.3f",
			headShare(uniform, pop/100), headShare(mild, pop/100), headShare(skewed, pop/100))
	}
	if share := headShare(uniform, pop/100); share > 0.03 {
		t.Fatalf("uniform head share %.3f, want ~0.01", share)
	}
}

func TestMixIsBijection(t *testing.T) {
	f := func(a, b uint64) bool {
		return (a == b) == (mix(a) == mix(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestOpKindString(t *testing.T) {
	for _, k := range []OpKind{OpPut, OpGet, OpDelete, OpScan, OpUpsert, OpKind(99)} {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
}

// recorder is a Dictionary that records the Puts it sees and panics at the
// panicAt-th one (counting from 1), if panicAt is set.
type recorder struct {
	puts    []kv.Entry
	panicAt int
}

func (r *recorder) Put(k, v []byte) {
	if len(r.puts)+1 == r.panicAt {
		panic("recorder: planned panic")
	}
	r.puts = append(r.puts, kv.Entry{Key: k, Value: v})
}
func (r *recorder) Get([]byte) ([]byte, bool)                  { return nil, false }
func (r *recorder) Scan(_, _ []byte, _ func(_, _ []byte) bool) {}

// TestLoadMatchesPlainLoop: Load, fed by its generator goroutine, Puts what
// the plain loop over ids would, in the same order, around the batch size,
// and no key or value, cut from a buffer it shares with its batch, has room
// to grow into the next.
func TestLoadMatchesPlainLoop(t *testing.T) {
	for _, spec := range []KeySpec{DefaultSpec(), {KeyBytes: 9, ValueBytes: 13}} {
		for _, n := range []int64{0, 1, loadBatch - 1, loadBatch, loadBatch + 1, 10000} {
			var r recorder
			Load(&r, spec, n)
			if int64(len(r.puts)) != n {
				t.Fatalf("%v n=%d: %d Puts", spec, n, len(r.puts))
			}
			for id, e := range r.puts {
				if !bytes.Equal(e.Key, spec.Key(uint64(id))) || !bytes.Equal(e.Value, spec.Value(uint64(id))) {
					t.Fatalf("%v n=%d: Put %d is not id %d's key and value", spec, n, id, id)
				}
				if cap(e.Key) != len(e.Key) || cap(e.Value) != len(e.Value) {
					t.Fatalf("%v n=%d: Put %d's key or value has capacity beyond its length", spec, n, id)
				}
			}
		}
	}
}

// TestLoadLeavesNoGoroutine: no goroutine outlives Load, whether it returns
// or a Put panics, at the first Put, inside a batch or at a batch's edge.
func TestLoadLeavesNoGoroutine(t *testing.T) {
	spec, base := DefaultSpec(), runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
			}
		}
	}
	for _, k := range []int{1, 2, loadBatch, loadBatch + 1, 3*loadBatch + 7} {
		r := recorder{panicAt: k}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Put %d: no panic", k)
				}
			}()
			Load(&r, spec, 10000)
		}()
		if len(r.puts) != k-1 {
			t.Fatalf("panic at Put %d: %d Puts before it", k, len(r.puts))
		}
		settled(fmt.Sprintf("panic at Put %d", k))
	}
	Load(&recorder{}, spec, 1000)
	settled("a load that returned")
}

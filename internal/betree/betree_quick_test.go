// Property-based tests (testing/quick) for the Bε-tree: quick generates
// random operation scripts which are replayed against a reference map, with
// structural invariants checked after every script. The scripts are long
// enough, and the nodes small enough, that a script splits the root leaf,
// flushes buffers, splits leaves and merges them again.

package betree

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"iomodels/internal/kv"
)

// script is a quick-generatable operation sequence: each op is (kind, key
// id, value length, which is an Upsert's delta).
type script []struct {
	Kind uint8
	ID   uint16
	VLen uint8
}

// quickKeys is the scripts' key space: enough live keys to fill more leaves
// than one internal node may point at.
const quickKeys = 1500

// Generate implements quick.Generator. quick's default slices (at most 50
// ops) never fill a node; a script here is 1,000-4,000 ops, and its second
// half is delete-heavy so that leaves shrink and merge.
func (script) Generate(r *rand.Rand, _ int) reflect.Value {
	s := make(script, 1000+r.Intn(3000))
	for i := range s {
		s[i].Kind, s[i].ID, s[i].VLen = uint8(r.Intn(5)), uint16(r.Intn(quickKeys)), uint8(r.Intn(256))
		if i > len(s)/2 && r.Intn(2) == 0 {
			s[i].Kind = 2
		}
	}
	return reflect.ValueOf(s)
}

func TestQuickScriptsAgainstModel(t *testing.T) {
	for name, cfg := range configs(8<<10, 0) {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			var flushes int64
			height := 1
			f := func(s script) bool {
				tree := newTestTree(t, cfg)
				defer func() { flushes, height = flushes+tree.Flushes, max(height, tree.Height()) }()
				model := map[string][]byte{}
				for _, op := range s {
					k := key(int(op.ID % quickKeys))
					switch op.Kind % 5 {
					case 0, 1:
						v := bytes.Repeat([]byte{byte(op.VLen)}, int(op.VLen)%96)
						tree.Put(k, v)
						model[string(k)] = v
					case 2:
						tree.Delete(k)
						delete(model, string(k))
					case 3:
						got, ok := tree.Get(k)
						want, wok := model[string(k)]
						if ok != wok || (ok && !bytes.Equal(got, want)) {
							return false
						}
					case 4:
						tree.Upsert(k, int64(op.VLen))
						old, had := model[string(k)]
						model[string(k)], _ = kv.Message{Kind: kv.Upsert, Value: kv.UpsertDelta(int64(op.VLen))}.Apply(old, had)
					}
				}
				if err := tree.Check(); err != nil {
					t.Logf("invariant violation: %v", err)
					return false
				}
				// Full agreement at the end.
				for ks, want := range model {
					got, ok := tree.Get([]byte(ks))
					if !ok || !bytes.Equal(got, want) {
						return false
					}
				}
				// The scan meets every pending message at every level: it
				// must yield the model's keys in order, with their values.
				keys := make([]string, 0, len(model))
				for k := range model {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				n, bad := 0, false
				tree.Scan(nil, nil, func(k, v []byte) bool {
					bad = n == len(keys) || string(k) != keys[n] || !bytes.Equal(v, model[keys[n]])
					n++
					return !bad
				})
				if bad || n != len(keys) {
					return false
				}
				tree.Settle()
				if err := tree.Check(); err != nil {
					t.Logf("invariant violation after Settle: %v", err)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
			// Scripts that never leave the root leaf check nothing the flush
			// and split paths do; about seven in ten scripts grow the tree to
			// height 3, so 25 that all stop short mean the test has shrunk.
			if flushes == 0 || height < 3 {
				t.Fatalf("across the scripts: %d flushes, height at most %d", flushes, height)
			}
		})
	}
}

// add is the per-message oracle for buffer.merge: it inserts a copy of m in
// (key, seq) order, and a Put or Tombstone supersedes every earlier message
// for the same key.
func (b *buffer) add(m kv.Message) {
	lo, hi := b.find(m.Key)
	if m.Kind != kv.Upsert && hi > lo {
		for _, old := range b.msgs[lo:hi] {
			b.bytes -= old.Size()
		}
		b.msgs = append(b.msgs[:lo], b.msgs[hi:]...)
		b.heads = append(b.heads[:lo], b.heads[hi:]...)
		hi = lo
	}
	b.msgs = slices.Insert(b.msgs, hi, m.Clone())
	b.heads = slices.Insert(b.heads, hi, kv.Head(m.Key))
	b.bytes += m.Size()
}

// TestQuickBufferCoalescing verifies buffer.merge against the per-message
// add loop: an older buffer built message by message takes a newer sorted
// run, with repeated keys, Upserts stacked after Puts, and keys that overlap
// the buffer's or lie wholly above or below them (a leaf merge folds the
// right neighbor's buffer into the left one's). Both must leave the same
// messages, head column and byte count, and a buffer that passes check:
// (key, seq) order, byte accounting, the coalescing rule (an absorbing
// message erases everything older for its key) and the head column.
func TestQuickBufferCoalescing(t *testing.T) {
	type op struct{ Kind, ID uint8 }
	seq := uint64(0)
	msg := func(o op, base int) kv.Message {
		seq++
		k := []byte(fmt.Sprintf("k%03d", base+int(o.ID%16)))
		switch o.Kind % 3 {
		case 0:
			return kv.Message{Kind: kv.Put, Seq: seq, Key: k, Value: []byte{o.ID}}
		case 1:
			return kv.Message{Kind: kv.Tombstone, Seq: seq, Key: k}
		}
		return kv.Message{Kind: kv.Upsert, Seq: seq, Key: k, Value: kv.UpsertDelta(int64(o.ID))}
	}
	f := func(older, newer []op, shift uint8) bool {
		var want, got buffer
		for _, o := range older {
			m := msg(o, 16)
			want.add(m)
			got.add(m)
		}
		run := make([]kv.Message, len(newer))
		for i, o := range newer {
			run[i] = msg(o, []int{16, 32, 0}[shift%3])
		}
		slices.SortStableFunc(run, func(a, b kv.Message) int { return kv.Compare(a.Key, b.Key) })
		for _, m := range run {
			want.add(m)
		}
		got.merge(run)
		if err := got.check(); err != nil {
			t.Log(err)
			return false
		}
		return slices.EqualFunc(got.msgs, want.msgs, func(a, b kv.Message) bool {
			return a.Kind == b.Kind && a.Seq == b.Seq && bytes.Equal(a.Key, b.Key) && bytes.Equal(a.Value, b.Value)
		}) && slices.Equal(got.heads, want.heads) && got.bytes == want.bytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestBeTreeTornWriteDetected mirrors the B-tree failure-injection test:
// corrupting an extent's header must be caught by the checksum on reload.
func TestBeTreeTornWriteDetected(t *testing.T) {
	cfg := configs(16<<10, 1<<20)["slot-only"]
	tree := newTestTree(t, cfg)
	for i := 0; i < 3000; i++ {
		tree.Put(key(i), value(i))
	}
	tree.Flush()
	tree.pager().EvictAll(tree.owner)
	var buf [1]byte
	// Corrupt the child-count field in the meta region of extent 1 (the
	// root stays pinned, so pick a non-root node's extent).
	off := int64(cfg.NodeBytes) + 3
	tree.owner.ReadAt(buf[:], off)
	buf[0] ^= 0xFF
	tree.owner.WriteAt(buf[:], off)
	defer func() {
		if recover() == nil {
			t.Fatal("corrupted node was accepted")
		}
	}()
	for i := 0; i < 3000; i++ {
		tree.Get(key(i))
	}
	tree.Settle()
}

// TestFlushPolicies exercises both flush-victim policies for correctness.
func TestFlushPolicies(t *testing.T) {
	for _, policy := range []FlushPolicy{FlushFullest, FlushRoundRobin} {
		cfg := configs(16<<10, 256<<10)["slot-only"]
		cfg.FlushPolicy = policy
		tree := newTestTree(t, cfg)
		const n = 3000
		for i := 0; i < n; i++ {
			tree.Put(key(i), value(i))
		}
		for i := 0; i < n; i++ {
			v, ok := tree.Get(key(i))
			if !ok || !bytes.Equal(v, value(i)) {
				t.Fatalf("%v: lost key %d", policy, i)
			}
		}
		if err := tree.Check(); err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if policy.String() == "" {
			t.Fatal("empty policy name")
		}
	}
}

// TestSettleMakesItemsExact is the Settle contract.
func TestSettleMakesItemsExact(t *testing.T) {
	cfg := configs(16<<10, 1<<20)["slot-only"]
	tree := newTestTree(t, cfg)
	const n = 2500
	for i := 0; i < n; i++ {
		tree.Put(key(i), value(i))
	}
	for i := 0; i < n; i += 3 {
		tree.Delete(key(i))
	}
	tree.Settle()
	want := n - (n+2)/3
	if tree.Items() != want {
		t.Fatalf("items = %d, want %d", tree.Items(), want)
	}
	if err := tree.Check(); err != nil {
		t.Fatal(err)
	}
}

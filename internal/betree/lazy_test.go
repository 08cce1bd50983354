package betree

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"iomodels/internal/engine"
	"iomodels/internal/kv"
)

// Lazy Slotted leaves: a whole-extent load is charged what the eager decode
// was charged, a basement is decoded and its crc checked on first use,
// materialize checks everything again, and a scan that emits basement by
// basement agrees with a model.

// leafOffsets returns the offset of every leaf, loading what it walks
// through on the owner.
func leafOffsets(tr *Tree) []int64 {
	var offs []int64
	var walk func(n *node)
	walk = func(n *node) {
		for _, c := range n.children {
			child, pin := tr.ensureFullc(tr.owner, c)
			if child.leaf {
				offs = append(offs, c)
			} else {
				walk(child)
			}
			tr.unpin(pin)
		}
	}
	walk(tr.rootN)
	return offs
}

// TestLazyLeafChargedAsEager: for every leaf of a seeded tree, the charge of
// a lazy load — from the meta region alone — is exactly the charge of the
// leaf with every basement decoded.
func TestLazyLeafChargedAsEager(t *testing.T) {
	cfg := configs(16<<10, 0)["slot-only"]
	tree := newTestTree(t, cfg, 256<<10)
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 20000; i++ {
		k := key(rng.Intn(10000))
		switch rng.Intn(4) {
		case 0, 1:
			tree.Put(k, value(rng.Intn(1<<20)))
		case 2:
			tree.Upsert(k, int64(rng.Intn(7)-3))
		default:
			tree.Delete(k)
		}
	}
	tree.Settle()
	tree.Flush()
	leaves := leafOffsets(tree)
	if len(leaves) < 10 {
		t.Fatalf("only %d leaves", len(leaves))
	}
	for _, off := range leaves {
		ext := tree.owner.Read(off, cfg.NodeBytes)
		lazy := tree.decodeExtent(off, ext)
		eager := tree.decodeExtent(off, ext)
		if err := eager.materialize(cfg); err != nil {
			t.Fatalf("leaf at %d: %v", off, err)
		}
		if lazy.ext == nil || eager.ext != nil {
			t.Fatalf("leaf at %d: not lazy after a load, or lazy after materialize", off)
		}
		if l, e := lazy.chargeSize(cfg), eager.chargeSize(cfg); l != e {
			t.Fatalf("leaf at %d: lazy charge %d, eager charge %d", off, l, e)
		}
	}
}

// TestLazyLeafChecks: materialize refuses a leaf whose basements do not add
// up to the entry bytes its meta region records, and a bit flipped in
// basement j is caught the first time j is used — not before, and not by
// another basement — and again by materialize.
func TestLazyLeafChecks(t *testing.T) {
	leaf := newLeafNode()
	for i := 0; i < 40; i++ {
		leaf.entries = append(leaf.entries, kv.Entry{Key: key(i), Value: value(i)})
	}
	leaf.leafBytes = entryBytes(leaf.entries)
	leaf.recut(slottedCfg.MaxFanout)
	ext := leaf.encode(slottedCfg)

	n, err := decodeFull(slottedCfg, ext)
	if err != nil {
		t.Fatal(err)
	}
	n.leafBytes++
	if err := n.materialize(slottedCfg); err == nil || !strings.Contains(err.Error(), "meta records") {
		t.Fatalf("materialize of a leaf whose meta disagrees: %v", err)
	}

	const bad = 2
	flipped := bytes.Clone(ext)
	flipped[slottedCfg.metaCap()+bad*slottedCfg.slotStride()+10] ^= 0x01
	n, err = decodeFull(slottedCfg, flipped)
	if err != nil {
		t.Fatalf("a load decoded a basement: %v", err)
	}
	for j := range n.slots {
		if _, err := n.basement(slottedCfg, j, true); (err != nil) != (j == bad) {
			t.Fatalf("basement %d of a leaf with basement %d flipped: err %v", j, bad, err)
		}
	}
	if err := n.materialize(slottedCfg); err == nil {
		t.Fatal("materialize accepted a flipped basement")
	}
}

// TestLazyScansMatchShadow runs E14- and E16-style churn — upserts, deletes
// and re-inserts under both flush policies, on uniform and skewed keys —
// on a cache of a few nodes, so scans meet lazy leaves under buffered
// messages, and compares every scan with a model. A last pass evicts the
// tree, scans it whole, and requires lazy leaves to be what the scan left
// resident.
func TestLazyScansMatchShadow(t *testing.T) {
	for _, policy := range []FlushPolicy{FlushFullest, FlushRoundRobin} {
		for _, skew := range []bool{false, true} {
			cfg := configs(16<<10, 0)["slot-only"]
			cfg.FlushPolicy = policy
			tree := newTestTree(t, cfg, 128<<10)
			rng := rand.New(rand.NewSource(16))
			const keyspace = 4000
			zipf := rand.NewZipf(rng, 1.2, 1, keyspace-1)
			pick := func() int {
				if skew {
					return int(zipf.Uint64())
				}
				return rng.Intn(keyspace)
			}
			model := map[string][]byte{}
			scan := func(lo []byte, limit int, what string) {
				var want []string
				for k := range model {
					if k >= string(lo) {
						want = append(want, k)
					}
				}
				sort.Strings(want)
				want = want[:min(limit, len(want))]
				got := 0
				tree.Scan(lo, nil, func(k, v []byte) bool {
					if got >= len(want) || string(k) != want[got] || !bytes.Equal(v, model[want[got]]) {
						t.Fatalf("%s (%v, skew %v): scan from %s: entry %d is %s", what, policy, skew, lo, got, k)
					}
					got++
					return got < limit
				})
				if got != len(want) {
					t.Fatalf("%s (%v, skew %v): scan from %s returned %d entries, want %d", what, policy, skew, lo, got, len(want))
				}
			}
			for i := 0; i < 8000; i++ {
				k := key(pick())
				switch r := rng.Intn(10); {
				case r < 3:
					v := value(rng.Intn(1 << 20))
					tree.Put(k, v)
					model[string(k)] = v
				case r < 5:
					tree.Upsert(k, 5)
					old, ok := model[string(k)]
					model[string(k)], _ = kv.Message{Kind: kv.Upsert, Value: kv.UpsertDelta(5)}.Apply(old, ok)
				case r < 7:
					tree.Delete(k)
					delete(model, string(k))
				default:
					scan(k, 1+rng.Intn(60), "churn")
				}
			}
			leaves := leafOffsets(tree)
			tree.Flush()
			tree.pager().EvictAll(tree.owner)
			scan(nil, keyspace, "whole")
			lazy := 0
			for _, off := range leaves {
				if obj, pin := tree.pager().TryPin(tree.owner, engine.PageID(off)); pin != nil {
					if obj.(*node).ext != nil {
						lazy++
					}
					tree.unpin(pin)
				}
			}
			if lazy == 0 {
				t.Fatalf("%v, skew %v: no scanned leaf stayed lazy", policy, skew)
			}
		}
	}
}

// Property-based tests (testing/quick) for the B-tree.

package btree

import (
	"bytes"
	"testing"
	"testing/quick"
)

// TestQuickScriptsAgainstModel replays quick-generated op scripts against a
// reference map with invariant checks.
func TestQuickScriptsAgainstModel(t *testing.T) {
	type op struct {
		Kind uint8
		ID   uint16
		VLen uint8
	}
	f := func(s []op) bool {
		tree := newTestTree(t, 1024, 32<<10)
		model := map[string][]byte{}
		for _, o := range s {
			k := key(int(o.ID % 300))
			switch o.Kind % 4 {
			case 0, 1:
				v := bytes.Repeat([]byte{byte(o.VLen)}, int(o.VLen)%96)
				tree.Put(k, v)
				model[string(k)] = v
			case 2:
				got := tree.Delete(k)
				_, want := model[string(k)]
				if got != want {
					return false
				}
				delete(model, string(k))
			case 3:
				got, ok := tree.Get(k)
				want, wok := model[string(k)]
				if ok != wok || (ok && !bytes.Equal(got, want)) {
					return false
				}
			}
		}
		if err := tree.Check(); err != nil {
			t.Logf("invariant violation: %v", err)
			return false
		}
		if tree.Items() != len(model) {
			return false
		}
		count := 0
		tree.Scan(nil, nil, func(k, v []byte) bool {
			count++
			return !bytes.Equal(v, []byte("never"))
		})
		return count == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSerializationRoundtrip: any node shape survives encode/decode.
func TestQuickSerializationRoundtrip(t *testing.T) {
	f := func(ids []uint16, vlen uint8) bool {
		n := newLeaf(4096)
		for _, id := range ids {
			if len(ids) > 20 {
				break
			}
			insert(n, key(int(id%100)), bytes.Repeat([]byte{1}, int(vlen)%64))
		}
		dec, err := decodeNode(bytes.Clone(n.encode(4096)))
		if err != nil {
			return false
		}
		if dec.count != n.count || dec.size != n.size {
			return false
		}
		for i := 0; i < dec.count; i++ {
			dk, dv := dec.entry(i)
			nk, nv := n.entry(i)
			if !bytes.Equal(dk, nk) || !bytes.Equal(dv, nv) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInternalRoundtrip does the same for internal nodes.
func TestQuickInternalRoundtrip(t *testing.T) {
	f := func(children []int64, pivotSeed uint8) bool {
		if len(children) == 0 || len(children) > 16 {
			return true
		}
		var pivots [][]byte
		for i := range children {
			if children[i] < 0 {
				children[i] = -children[i]
			}
			if i > 0 {
				pivots = append(pivots, key(int(pivotSeed)+i))
			}
		}
		n := newInternal(pivots, children)
		buf := n.encode(4096)
		dec, err := decodeNode(buf)
		if err != nil {
			return false
		}
		if len(dec.children) != len(n.children) || len(dec.pivots) != len(n.pivots) {
			return false
		}
		for i := range dec.children {
			if dec.children[i] != n.children[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

package kv

import (
	"bytes"
	"slices"
	"testing"
)

// compareSeeds are the shapes Compare's head-first path must order exactly
// as bytes.Compare: empty keys, keys shorter than a word, equal 8-byte heads
// with different tails, a key that is a prefix of another, and 0x00/0xff
// heads.
var compareSeeds = [][2][]byte{
	{nil, nil},
	{nil, []byte("a")},
	{[]byte{}, []byte{0}},
	{[]byte("abc"), []byte("abd")},
	{[]byte("abcdefg"), []byte("abcdefgh")},
	{[]byte("abcdefgh"), []byte("abcdefgh")},
	{[]byte("abcdefgh1"), []byte("abcdefgh2")},
	{[]byte("abcdefgh"), []byte("abcdefgh\x00")},
	{[]byte("key-00000001"), []byte("key-00000001-suffix")},
	{[]byte("key-00000001"), []byte("key-00000002")},
	{[]byte("key-0000"), []byte("key-00000000")},
	{bytes.Repeat([]byte{0}, 8), bytes.Repeat([]byte{0xff}, 8)},
	{bytes.Repeat([]byte{0}, 9), bytes.Repeat([]byte{0}, 8)},
	{bytes.Repeat([]byte{0xff}, 12), bytes.Repeat([]byte{0xff}, 8)},
	{[]byte{0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0x80, 0, 0, 0, 0, 0, 0, 0}},
	{[]byte{0xff, 0, 0, 0, 0, 0, 0, 0, 1}, []byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}},
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// TestCompareMatchesBytes: on every seed shape, in both argument orders,
// Compare has the sign of bytes.Compare.
func TestCompareMatchesBytes(t *testing.T) {
	for _, s := range compareSeeds {
		for _, p := range [][2][]byte{s, {s[1], s[0]}} {
			if got, want := sign(Compare(p[0], p[1])), bytes.Compare(p[0], p[1]); got != want {
				t.Errorf("Compare(%q, %q) sign %d, bytes.Compare %d", p[0], p[1], got, want)
			}
		}
	}
}

// FuzzCompare: the sign of Compare equals the sign of bytes.Compare for any
// two keys.
func FuzzCompare(f *testing.F) {
	for _, s := range compareSeeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if got, want := sign(Compare(a, b)), bytes.Compare(a, b); got != want {
			t.Fatalf("Compare(%x, %x) sign %d, bytes.Compare %d", a, b, got, want)
		}
	})
}

// TestSearchMatchesLinearScan: on a sorted run of every seed key, for every
// seed key as the target, Search with the run's head column and without one
// returns what a linear scan finds, in both modes.
func TestSearchMatchesLinearScan(t *testing.T) {
	var run [][]byte
	for _, s := range compareSeeds {
		run = append(run, s[0], s[1])
	}
	slices.SortFunc(run, bytes.Compare)
	run = slices.CompactFunc(run, bytes.Equal)
	heads := make([]uint64, len(run))
	for i, k := range run {
		heads[i] = Head(k)
	}
	key := func(i int) []byte { return run[i] }
	for _, k := range run {
		for _, after := range []bool{false, true} {
			want := 0
			for want < len(run) && (bytes.Compare(run[want], k) < 0 || after && bytes.Equal(run[want], k)) {
				want++
			}
			wantEq := !after && want < len(run) && bytes.Equal(run[want], k)
			for _, col := range [][]uint64{heads, nil} {
				if i, eq := Search(len(run), col, k, after, key); i != want || eq != wantEq {
					t.Errorf("Search(%q, after %v, column %v) = %d, %v; want %d, %v", k, after, col != nil, i, eq, want, wantEq)
				}
			}
		}
	}
}

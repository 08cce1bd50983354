// Package cluster turns N kvserve nodes into one dictionary: a consistent-
// hash ring routes keys to shards (ring.go), a client-side router fans
// operations out and fails over when a primary dies (router.go), and a
// shipper tails a primary's WAL stream into a warm replica (replica.go).
//
// The ring hashes shard INDICES, not addresses: a failover replaces the
// node serving a shard, never the shard a key maps to, so promotion moves
// zero keys.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodes is the virtual-node count per shard: enough points that the key
// space splits near-evenly even for 2–3 shards.
const vnodes = 64

// Ring is an immutable consistent-hash ring over shard indices.
type Ring struct {
	shards int
	points []ringPoint // hash-ascending
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds a ring of `shards` shards with vnodes virtual points each.
// Deterministic: every router in the cluster derives the identical ring from
// the shard count alone.
func NewRing(shards int) *Ring {
	if shards < 1 {
		shards = 1
	}
	r := &Ring{shards: shards, points: make([]ringPoint, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hash64([]byte(fmt.Sprintf("shard-%d-point-%d", s, v))),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Shards returns the shard count.
func (r *Ring) Shards() int { return r.shards }

// Shard maps a key to its shard index: the first ring point at or past the
// key's hash, wrapping at the top.
func (r *Ring) Shard(key []byte) int {
	if r.shards == 1 {
		return 0
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// hash64 is FNV-1a with a 64-bit finalizer. FNV alone is deterministic
// across processes and Go versions (unlike maphash) but avalanches poorly:
// keys differing only in trailing digits — exactly the sequential key shapes
// loadgen emits — land in a sliver of the ring and all route to one shard.
// The fmix64 finalizer (MurmurHash3's) spreads them uniformly.
func hash64(b []byte) uint64 {
	f := fnv.New64a()
	f.Write(b)
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Package workload generates the deterministic key-value workloads the
// paper's experiments use: bulk loads, uniform-random and Zipfian point
// operations, and mixed operation streams. All generators are driven by
// seeded RNGs so every experiment is exactly reproducible.
package workload

import (
	"encoding/binary"
	"fmt"

	"iomodels/internal/kv"
	"iomodels/internal/stats"
)

// KeySpec shapes generated keys and values.
type KeySpec struct {
	KeyBytes   int // fixed key length (>= 8)
	ValueBytes int // fixed value length
}

// DefaultSpec matches the paper's §7 setup in spirit: ~100-byte pairs.
func DefaultSpec() KeySpec { return KeySpec{KeyBytes: 16, ValueBytes: 100} }

// Key materializes key number id: a fixed-width big-endian counter embedded
// in a KeyBytes-wide field after bit-mixing, so key order is uncorrelated
// with insertion id (uniformly spread across the key space) yet reproducible.
func (s KeySpec) Key(id uint64) []byte {
	if s.KeyBytes < 8 {
		panic("workload: KeyBytes must be at least 8")
	}
	k := make([]byte, s.KeyBytes)
	binary.BigEndian.PutUint64(k, mix(id))
	// Embed the raw id too so keys are unique even under mix collisions
	// (mix is a bijection, so this is belt and braces, and it makes keys
	// human-decodable in traces).
	if s.KeyBytes >= 16 {
		binary.BigEndian.PutUint64(k[8:], id)
	}
	return k
}

// SequentialKey materializes key number id in key order (no mixing):
// ascending ids give ascending keys. Used by sequential-load phases.
func (s KeySpec) SequentialKey(id uint64) []byte {
	if s.KeyBytes < 8 {
		panic("workload: KeyBytes must be at least 8")
	}
	k := make([]byte, s.KeyBytes)
	binary.BigEndian.PutUint64(k, id)
	return k
}

// Value materializes the value for key number id: deterministic filler that
// can be verified on read.
func (s KeySpec) Value(id uint64) []byte {
	v := make([]byte, s.ValueBytes)
	x := mix(id ^ 0xDEADBEEF)
	for i := 0; i < len(v); i += 8 {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], x)
		copy(v[i:], b[:])
		x = mix(x)
	}
	return v
}

// mix is the SplitMix64 finalizer: a bijective bit mixer.
func mix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// OpKind labels one operation in a stream.
type OpKind int

// Operation kinds.
const (
	OpPut OpKind = iota
	OpGet
	OpDelete
	OpScan
	OpUpsert
	// OpRMW is a read-modify-write: Get the key, then Put a value derived
	// from what was read (YCSB workload F's operation). Unlike OpUpsert it
	// is not blind — the read IO is on the critical path.
	OpRMW
)

func (k OpKind) String() string {
	switch k {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	case OpUpsert:
		return "upsert"
	case OpRMW:
		return "rmw"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op is one generated operation. ID selects the key; Len is the scan length
// for OpScan.
type Op struct {
	Kind OpKind
	ID   uint64
	Len  int
}

// Mix describes the composition of a generated operation stream, as
// weights.
type Mix struct {
	Puts    int
	Gets    int
	Deletes int
	Scans   int
	Upserts int
	RMWs    int
	ScanLen int
}

// Stream generates a deterministic operation stream over a key population.
type Stream struct {
	spec   KeySpec
	rng    *stats.RNG
	mix    Mix
	total  int
	keyPop int64
	zipf   *stats.Zipf // nil = uniform
}

// NewStream builds a generator over keys [0, keyPop) with the given mix.
// If theta > 0 keys are drawn Zipf(theta), else uniformly.
func NewStream(spec KeySpec, seed uint64, keyPop int64, mix Mix, theta float64) *Stream {
	if keyPop <= 0 {
		panic("workload: empty key population")
	}
	w := mix.Puts + mix.Gets + mix.Deletes + mix.Scans + mix.Upserts + mix.RMWs
	if w <= 0 {
		panic("workload: empty mix")
	}
	s := &Stream{spec: spec, rng: stats.NewRNG(seed), mix: mix, total: w, keyPop: keyPop}
	if theta > 0 {
		s.zipf = stats.NewZipf(keyPop, theta)
	}
	return s
}

// Next generates the next operation.
func (s *Stream) Next() Op {
	var id uint64
	if s.zipf != nil {
		id = uint64(s.zipf.Next(s.rng))
	} else {
		id = uint64(s.rng.Int63n(s.keyPop))
	}
	r := s.rng.Intn(s.total)
	m := s.mix
	switch {
	case r < m.Puts:
		return Op{Kind: OpPut, ID: id}
	case r < m.Puts+m.Gets:
		return Op{Kind: OpGet, ID: id}
	case r < m.Puts+m.Gets+m.Deletes:
		return Op{Kind: OpDelete, ID: id}
	case r < m.Puts+m.Gets+m.Deletes+m.Scans:
		n := m.ScanLen
		if n <= 0 {
			n = 100
		}
		return Op{Kind: OpScan, ID: id, Len: n}
	case r < m.Puts+m.Gets+m.Deletes+m.Scans+m.Upserts:
		return Op{Kind: OpUpsert, ID: id}
	default:
		return Op{Kind: OpRMW, ID: id}
	}
}

// Spec returns the stream's key spec.
func (s *Stream) Spec() KeySpec { return s.spec }

// Dictionary is the interface all our trees satisfy, letting workloads be
// applied uniformly to B-trees, Bε-trees and LSM-trees.
type Dictionary interface {
	Put(key, value []byte)
	Get(key []byte) ([]byte, bool)
	Scan(lo, hi []byte, fn func(key, value []byte) bool)
}

// Deleter is the optional delete extension of Dictionary.
type Deleter interface {
	Delete(key []byte) bool
}

// Upserter is the optional blind-delta extension of Dictionary (the Bε-tree's
// message path).
type Upserter interface {
	Upsert(key []byte, delta int64)
}

// Apply runs op against d using spec to materialize keys and values.
// OpDelete requires d to implement Deleter. OpUpsert uses Upserter when d
// has it, and otherwise simulates the delta with a read-modify-write (so
// uniform sweeps across trees stay possible, at the cost of the read).
// OpRMW is always Get-then-Put: the dependent read is the point.
func Apply(d Dictionary, spec KeySpec, op Op) {
	switch op.Kind {
	case OpPut:
		d.Put(spec.Key(op.ID), spec.Value(op.ID))
	case OpGet:
		d.Get(spec.Key(op.ID))
	case OpScan:
		count := 0
		d.Scan(spec.Key(op.ID), nil, func(k, v []byte) bool {
			count++
			return count < op.Len
		})
	case OpDelete:
		del, ok := d.(Deleter)
		if !ok {
			panic(fmt.Sprintf("workload: %T does not support deletes", d))
		}
		del.Delete(spec.Key(op.ID))
	case OpUpsert:
		key := spec.Key(op.ID)
		if up, ok := d.(Upserter); ok {
			up.Upsert(key, 1)
			return
		}
		old, ok := d.Get(key)
		v, _ := kv.Message{Kind: kv.Upsert, Value: kv.UpsertDelta(1)}.Apply(old, ok)
		d.Put(key, v)
	case OpRMW:
		key := spec.Key(op.ID)
		old, ok := d.Get(key)
		next := spec.Value(op.ID)
		if ok && len(old) > 0 && len(next) > 0 {
			// Derive the written value from the read one so the data
			// dependency is real, not just a timing artifact.
			next = append([]byte(nil), next...)
			next[0] ^= old[0]
		}
		d.Put(key, next)
	default:
		panic(fmt.Sprintf("workload: Apply does not handle %v", op.Kind))
	}
}

// Load inserts keys [0, n) in random insertion order (ids are bit-mixed, so
// sequential ids already give uniformly distributed keys).
func Load(d Dictionary, spec KeySpec, n int64) {
	for id := int64(0); id < n; id++ {
		d.Put(spec.Key(uint64(id)), spec.Value(uint64(id)))
	}
}

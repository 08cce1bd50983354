// Package kv defines the key-value vocabulary shared by every dictionary in
// this repository (B-tree, Bε-tree, LSM-tree): entries, update messages
// (the Bε-tree's insert/tombstone/upsert encoding, §3 of the paper), and a
// small deterministic binary codec used to serialize tree nodes into
// fixed-size disk pages. Node sizes — the paper's central tuning parameter —
// are therefore real serialized byte counts.
package kv

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"sort"
)

// Entry is a key-value pair stored in a leaf.
type Entry struct {
	Key   []byte
	Value []byte
}

// EncodedEntrySize returns the on-disk footprint of an entry.
func EncodedEntrySize(key, value []byte) int { return 4 + len(key) + 4 + len(value) }

// Size returns the on-disk footprint of e.
func (e Entry) Size() int { return EncodedEntrySize(e.Key, e.Value) }

// Clone returns e with its key and value copied into one new allocation, so
// whatever keeps the copy does not pin the buffer e was decoded from.
func (e Entry) Clone() Entry {
	b := append(append(make([]byte, 0, len(e.Key)+len(e.Value)), e.Key...), e.Value...)
	return Entry{Key: b[:len(e.Key):len(e.Key)], Value: b[len(e.Key):]}
}

// Compare orders keys bytewise. Two keys of 8 bytes or more that differ in
// their first 8 are ordered by those read as one big-endian word, which is
// the same order and takes no call.
func Compare(a, b []byte) int {
	if len(a) >= 8 && len(b) >= 8 {
		if x, y := binary.BigEndian.Uint64(a), binary.BigEndian.Uint64(b); x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return bytes.Compare(a, b)
}

// Head is k's first 8 bytes as a big-endian word, zero-padded: where two
// keys' heads differ they order as the keys do.
func Head(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var b [8]byte
	copy(b[:], k)
	return binary.BigEndian.Uint64(b[:])
}

// Search is the trees' one binary search over a sorted key run: the first
// i < n with key(i) >= k (key(i) > k when after is set), or n, and whether
// key(i) == k (never, with after). heads is the run's head column, or nil
// for a run without one; a probe loads key(i) only when its head ties k's.
func Search(n int, heads []uint64, k []byte, after bool, key func(int) []byte) (int, bool) {
	h, eq := Head(k), false
	i := sort.Search(n, func(m int) bool {
		var c int
		if heads != nil && heads[m] != h {
			c = cmp.Compare(heads[m], h)
		} else {
			c = Compare(key(m), k)
		}
		if c < 0 || after && c == 0 {
			return false
		}
		eq = c == 0
		return true
	})
	return i, eq
}

// Kind discriminates update messages.
type Kind uint8

// Message kinds. Put inserts or replaces; Tombstone deletes (the paper's
// "so-called tombstone message"); Upsert applies a commutative delta to a
// 64-bit counter value, creating it if absent (the upsert optimization the
// paper mentions alongside inserts and deletes).
const (
	Put Kind = iota + 1
	Tombstone
	Upsert
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Put:
		return "put"
	case Tombstone:
		return "tombstone"
	case Upsert:
		return "upsert"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is a buffered update. Seq is a tree-global sequence number that
// preserves application order for messages to the same key as they migrate
// down the tree.
type Message struct {
	Kind  Kind
	Seq   uint64
	Key   []byte
	Value []byte // Put: new value; Upsert: 8-byte big-endian delta; Tombstone: empty
}

// EncodedMessageSize returns the on-disk footprint of a message.
func EncodedMessageSize(key, value []byte) int { return 1 + 8 + 4 + len(key) + 4 + len(value) }

// Size returns the on-disk footprint of m.
func (m Message) Size() int { return EncodedMessageSize(m.Key, m.Value) }

// Clone is Entry.Clone for a message.
func (m Message) Clone() Message {
	e := Entry{Key: m.Key, Value: m.Value}.Clone()
	m.Key, m.Value = e.Key, e.Value
	return m
}

// UpsertDelta encodes an upsert delta value.
func UpsertDelta(delta int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(delta))
	return b[:]
}

// Apply applies m to the current state of its key and returns the new state.
// ok reports whether the key exists afterwards.
func (m Message) Apply(old []byte, oldOK bool) (val []byte, ok bool) {
	switch m.Kind {
	case Put:
		return m.Value, true
	case Tombstone:
		return nil, false
	case Upsert:
		var cur int64
		if oldOK && len(old) == 8 {
			cur = int64(binary.BigEndian.Uint64(old))
		}
		cur += int64(binary.BigEndian.Uint64(m.Value))
		return UpsertDelta(cur), true
	default:
		panic(fmt.Sprintf("kv: apply of invalid message kind %d", m.Kind))
	}
}

// ApplyAll folds messages (which must be in ascending Seq order) over an
// initial state.
func ApplyAll(msgs []Message, old []byte, oldOK bool) ([]byte, bool) {
	for _, m := range msgs {
		old, oldOK = m.Apply(old, oldOK)
	}
	return old, oldOK
}

// ---------------------------------------------------------------------------
// Binary codec

// Enc appends fixed-layout fields to a buffer. All integers are big-endian;
// byte strings are length-prefixed with a uint32.
type Enc struct {
	Buf []byte
}

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.Buf = append(e.Buf, v) }

// U32 appends a big-endian uint32.
func (e *Enc) U32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	e.Buf = append(e.Buf, b[:]...)
}

// U64 appends a big-endian uint64.
func (e *Enc) U64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.Buf = append(e.Buf, b[:]...)
}

// Bytes appends a length-prefixed byte string.
func (e *Enc) Bytes(v []byte) {
	e.U32(uint32(len(v)))
	e.Buf = append(e.Buf, v...)
}

// Entry appends an entry.
func (e *Enc) Entry(ent Entry) {
	e.Bytes(ent.Key)
	e.Bytes(ent.Value)
}

// Message appends a message.
func (e *Enc) Message(m Message) {
	e.U8(uint8(m.Kind))
	e.U64(m.Seq)
	e.Bytes(m.Key)
	e.Bytes(m.Value)
}

// Dec reads fields appended by Enc. The first malformed read sets Err and
// makes all further reads return zero values, so call sites can decode a
// whole structure and check Err once.
//
// Decoded byte strings are views of Buf: a buffer handed to Dec is never
// written again, and a decoded field keeps all of it alive. A field that must
// outlive its buffer without pinning it is copied once, by the caller (Clone).
type Dec struct {
	Buf []byte
	Off int
	Err error
}

func (d *Dec) fail(what string) {
	if d.Err == nil {
		d.Err = fmt.Errorf("kv: truncated %s at offset %d", what, d.Off)
	}
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	if d.Err != nil || d.Off+1 > len(d.Buf) {
		d.fail("u8")
		return 0
	}
	v := d.Buf[d.Off]
	d.Off++
	return v
}

// U32 reads a big-endian uint32.
func (d *Dec) U32() uint32 {
	if d.Err != nil || d.Off+4 > len(d.Buf) {
		d.fail("u32")
		return 0
	}
	v := binary.BigEndian.Uint32(d.Buf[d.Off:])
	d.Off += 4
	return v
}

// U64 reads a big-endian uint64.
func (d *Dec) U64() uint64 {
	if d.Err != nil || d.Off+8 > len(d.Buf) {
		d.fail("u64")
		return 0
	}
	v := binary.BigEndian.Uint64(d.Buf[d.Off:])
	d.Off += 8
	return v
}

// Bytes reads a length-prefixed byte string as a view of Buf whose capacity
// ends with the string, so an append to it reallocates instead of
// overwriting the next field. The length is validated against the remaining
// buffer, so a hostile prefix (the server decodes these off the wire) fails
// cleanly — and on 32-bit platforms the int conversion is guarded against
// going negative.
func (d *Dec) Bytes() []byte {
	n := int(d.U32())
	if d.Err != nil || n < 0 || n > len(d.Buf)-d.Off {
		d.fail("bytes")
		return nil
	}
	v := d.Buf[d.Off : d.Off+n : d.Off+n]
	d.Off += n
	return v
}

// Entry reads an entry.
func (d *Dec) Entry() Entry {
	k := d.Bytes()
	v := d.Bytes()
	return Entry{Key: k, Value: v}
}

// Message reads a message.
func (d *Dec) Message() Message {
	var m Message
	m.Kind = Kind(d.U8())
	m.Seq = d.U64()
	m.Key = d.Bytes()
	m.Value = d.Bytes()
	if d.Err == nil {
		switch m.Kind {
		case Put, Tombstone, Upsert:
		default:
			d.fail("message kind")
		}
	}
	return m
}

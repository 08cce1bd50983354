// Wire-hardening tests: the server decodes Dec structures off untrusted
// network bytes, so decoding arbitrary, truncated, or oversized payloads
// must set Err — never panic, never over-allocate.

package kv

import (
	"bytes"
	"testing"
)

// decodeEverything drives every Dec read path over buf the way the server's
// protocol layer does: mixed fixed-width and length-prefixed fields.
func decodeEverything(buf []byte) {
	d := &Dec{Buf: buf}
	_ = d.U8()
	_ = d.Bytes()
	_ = d.U32()
	_ = d.Entry()
	_ = d.U64()
	_ = d.Message()
	_ = d.Bytes()
	_ = d.Err

	// And again as pure structures, from the start.
	d2 := &Dec{Buf: buf}
	for d2.Err == nil && d2.Off < len(d2.Buf) {
		_ = d2.Message()
	}
	d3 := &Dec{Buf: buf}
	for d3.Err == nil && d3.Off < len(d3.Buf) {
		_ = d3.Entry()
	}
}

func FuzzDec(f *testing.F) {
	// Seeds: valid encodings, truncations, and hostile length prefixes.
	var e Enc
	e.Entry(Entry{Key: []byte("key"), Value: []byte("value")})
	valid := append([]byte(nil), e.Buf...)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:5])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})             // length 2^32-1, empty rest
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff, 'x'})        // length 2^31-1
	f.Add([]byte{0x80, 0x00, 0x00, 0x00, 'x'})        // length 2^31 (negative as int32)
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0}) // message-ish prefix

	var em Enc
	em.Message(Message{Kind: Upsert, Seq: 7, Key: []byte("k"), Value: UpsertDelta(-3)})
	f.Add(append([]byte(nil), em.Buf...))

	f.Fuzz(func(t *testing.T, buf []byte) {
		decodeEverything(buf) // must not panic
	})
}

// FuzzDecViewsCapped: every field Bytes returns lies inside the buffer at
// the offset it was read from, ends its capacity there, and appending to it
// leaves the buffer — and so every later field — untouched.
func FuzzDecViewsCapped(f *testing.F) {
	var e Enc
	e.Entry(Entry{Key: []byte("key"), Value: []byte("value")})
	e.Bytes(nil)
	e.Message(Message{Kind: Put, Seq: 3, Key: []byte("k"), Value: []byte("v")})
	f.Add(append([]byte(nil), e.Buf...))
	f.Add([]byte{0, 0, 0, 2, 'a', 'b', 0, 0, 0, 1, 'c'})
	f.Add([]byte{0, 0, 0, 9, 'x'})

	f.Fuzz(func(t *testing.T, buf []byte) {
		orig := append([]byte(nil), buf...)
		d := &Dec{Buf: buf}
		for d.Err == nil && d.Off < len(buf) {
			at := d.Off + 4
			v := d.Bytes()
			if d.Err != nil {
				break
			}
			if len(v) > 0 && &v[0] != &buf[at] {
				t.Fatalf("field at %d is not a view of the buffer", at)
			}
			if cap(v) != len(v) {
				t.Fatalf("field at %d: cap %d beyond len %d", at, cap(v), len(v))
			}
			_ = append(v, 0xAA, 0xBB, 0xCC, 0xDD)
		}
		if !bytes.Equal(buf, orig) {
			t.Fatal("appending to a decoded field wrote into the buffer")
		}
	})
}

// TestDecTruncationEveryPrefix: every strict prefix of a valid encoding must
// decode to an error; only the full buffer decodes cleanly.
func TestDecTruncationEveryPrefix(t *testing.T) {
	var e Enc
	e.U8(3)
	e.Bytes([]byte("hello"))
	e.U32(12345)
	e.Entry(Entry{Key: []byte("key"), Value: []byte("longer-value-here")})
	e.U64(1 << 40)
	e.Message(Message{Kind: Put, Seq: 9, Key: []byte("mk"), Value: []byte("mv")})
	full := e.Buf

	decode := func(buf []byte) error {
		d := &Dec{Buf: buf}
		_ = d.U8()
		_ = d.Bytes()
		_ = d.U32()
		_ = d.Entry()
		_ = d.U64()
		_ = d.Message()
		if d.Err == nil && d.Off != len(buf) {
			t.Fatalf("decode consumed %d of %d bytes without error", d.Off, len(buf))
		}
		return d.Err
	}
	if err := decode(full); err != nil {
		t.Fatalf("full buffer failed to decode: %v", err)
	}
	for n := 0; n < len(full); n++ {
		if err := decode(full[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(full))
		}
	}
}

// TestDecHostileLength: a length prefix far beyond the buffer must fail
// before allocating, including the 32-bit-negative range.
func TestDecHostileLength(t *testing.T) {
	for _, buf := range [][]byte{
		{0xff, 0xff, 0xff, 0xff},
		{0xff, 0xff, 0xff, 0xff, 'a', 'b'},
		{0x80, 0x00, 0x00, 0x00},
		{0x00, 0x00, 0x01, 0x00, 'x'}, // length 256, 1 byte present
	} {
		d := &Dec{Buf: buf}
		if v := d.Bytes(); v != nil || d.Err == nil {
			t.Fatalf("hostile length %x decoded: %q err=%v", buf[:4], v, d.Err)
		}
	}
}

// TestDecStickyError: after the first failure every further read is a zero
// value and the original error is preserved.
func TestDecStickyError(t *testing.T) {
	d := &Dec{Buf: []byte{1, 2}}
	_ = d.U32() // fails: 2 bytes
	first := d.Err
	if first == nil {
		t.Fatal("U32 on 2 bytes succeeded")
	}
	if v := d.U8(); v != 0 {
		t.Fatalf("post-error U8 = %d", v)
	}
	if v := d.Bytes(); v != nil {
		t.Fatalf("post-error Bytes = %q", v)
	}
	if m := d.Message(); m.Kind != 0 || m.Key != nil {
		t.Fatalf("post-error Message = %+v", m)
	}
	if d.Err != first {
		t.Fatalf("error replaced: %v -> %v", first, d.Err)
	}
}

package kv

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestCompare(t *testing.T) {
	if Compare([]byte("a"), []byte("b")) >= 0 {
		t.Fatal("a < b expected")
	}
	if Compare([]byte("ab"), []byte("ab")) != 0 {
		t.Fatal("equal expected")
	}
}

func TestEntrySize(t *testing.T) {
	e := Entry{Key: []byte("key"), Value: []byte("value")}
	if e.Size() != 4+3+4+5 {
		t.Fatalf("size = %d", e.Size())
	}
	if EncodedEntrySize(e.Key, e.Value) != e.Size() {
		t.Fatal("size helpers disagree")
	}
}

func TestMessageApplySemantics(t *testing.T) {
	put := Message{Kind: Put, Key: []byte("k"), Value: []byte("v1")}
	if v, ok := put.Apply(nil, false); !ok || string(v) != "v1" {
		t.Fatal("put on absent failed")
	}
	if v, ok := put.Apply([]byte("old"), true); !ok || string(v) != "v1" {
		t.Fatal("put on present failed")
	}
	tomb := Message{Kind: Tombstone, Key: []byte("k")}
	if _, ok := tomb.Apply([]byte("old"), true); ok {
		t.Fatal("tombstone left key alive")
	}
	up := Message{Kind: Upsert, Key: []byte("k"), Value: UpsertDelta(5)}
	v, ok := up.Apply(nil, false)
	if !ok {
		t.Fatal("upsert did not create")
	}
	v, ok = up.Apply(v, ok)
	v, ok = Message{Kind: Upsert, Key: []byte("k"), Value: UpsertDelta(-3)}.Apply(v, ok)
	if !ok {
		t.Fatal("upsert chain died")
	}
	if got, _ := (Message{Kind: Upsert, Key: []byte("k"), Value: UpsertDelta(0)}).Apply(v, ok); !bytes.Equal(got, UpsertDelta(7)) {
		t.Fatalf("counter = %v, want 7", got)
	}
}

func TestApplyAll(t *testing.T) {
	msgs := []Message{
		{Kind: Put, Seq: 1, Key: []byte("k"), Value: []byte("a")},
		{Kind: Upsert, Seq: 2, Key: []byte("k"), Value: UpsertDelta(1)}, // put of non-counter then upsert: counter restarts
		{Kind: Tombstone, Seq: 3, Key: []byte("k")},
		{Kind: Upsert, Seq: 4, Key: []byte("k"), Value: UpsertDelta(9)},
	}
	v, ok := ApplyAll(msgs, nil, false)
	if !ok || !bytes.Equal(v, UpsertDelta(9)) {
		t.Fatalf("ApplyAll = %v %v", v, ok)
	}
}

func TestApplyInvalidKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Message{Kind: 99}.Apply(nil, false)
}

func TestKindString(t *testing.T) {
	if Put.String() != "put" || Tombstone.String() != "tombstone" || Upsert.String() != "upsert" {
		t.Fatal("kind names wrong")
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind renders empty")
	}
}

func TestCodecRoundtripScalars(t *testing.T) {
	var e Enc
	e.U8(7)
	e.U32(1 << 30)
	e.U64(1 << 60)
	e.Bytes([]byte("hello"))
	d := Dec{Buf: e.Buf}
	if d.U8() != 7 || d.U32() != 1<<30 || d.U64() != 1<<60 || string(d.Bytes()) != "hello" {
		t.Fatal("roundtrip mismatch")
	}
	if d.Err != nil {
		t.Fatal(d.Err)
	}
}

func TestCodecRoundtripEntryMessage(t *testing.T) {
	ent := Entry{Key: []byte("k1"), Value: []byte("v1")}
	msg := Message{Kind: Upsert, Seq: 42, Key: []byte("k2"), Value: UpsertDelta(-1)}
	var e Enc
	e.Entry(ent)
	e.Message(msg)
	d := Dec{Buf: e.Buf}
	gotE := d.Entry()
	gotM := d.Message()
	if d.Err != nil {
		t.Fatal(d.Err)
	}
	if !bytes.Equal(gotE.Key, ent.Key) || !bytes.Equal(gotE.Value, ent.Value) {
		t.Fatalf("entry mismatch: %+v", gotE)
	}
	if gotM.Kind != msg.Kind || gotM.Seq != msg.Seq || !bytes.Equal(gotM.Key, msg.Key) || !bytes.Equal(gotM.Value, msg.Value) {
		t.Fatalf("message mismatch: %+v", gotM)
	}
}

func TestDecTruncation(t *testing.T) {
	var e Enc
	e.Bytes([]byte("hello"))
	d := Dec{Buf: e.Buf[:6]} // cut mid-string
	d.Bytes()
	if d.Err == nil {
		t.Fatal("truncated decode did not error")
	}
	// Further reads stay zero without panicking.
	if d.U32() != 0 || d.U64() != 0 || d.U8() != 0 {
		t.Fatal("reads after error not zero")
	}
}

func TestDecBadMessageKind(t *testing.T) {
	var e Enc
	e.Message(Message{Kind: Put, Key: []byte("k")})
	e.Buf[0] = 200 // corrupt the kind
	d := Dec{Buf: e.Buf}
	d.Message()
	if d.Err == nil {
		t.Fatal("bad kind not detected")
	}
}

// TestDecBytesAliasesCapped: a decoded field is a view of the buffer (no
// copy), and its capacity stops at its own end, so appending to it cannot
// overwrite the field after it.
func TestDecBytesAliasesCapped(t *testing.T) {
	var e Enc
	e.Bytes([]byte("abc"))
	e.Bytes([]byte("next"))
	d := Dec{Buf: e.Buf}
	got := d.Bytes()
	if &got[0] != &e.Buf[4] {
		t.Fatal("decoded bytes are a copy, not a view of the buffer")
	}
	if cap(got) != len(got) {
		t.Fatalf("view has cap %d beyond its len %d", cap(got), len(got))
	}
	grown := append(got, "XXXXXXXX"...)
	if string(grown) != "abcXXXXXXXX" {
		t.Fatalf("append to a view = %q", grown)
	}
	if next := d.Bytes(); d.Err != nil || string(next) != "next" {
		t.Fatalf("field after an appended view = %q, %v", next, d.Err)
	}
	if empty := (&Dec{Buf: []byte{0, 0, 0, 0}}).Bytes(); empty == nil || len(empty) != 0 {
		t.Fatalf("empty field decoded as %#v, want a non-nil empty slice", empty)
	}
}

func TestCodecRoundtripProperty(t *testing.T) {
	f := func(key, value []byte, seq uint64, kindSel uint8) bool {
		kind := Kind(kindSel%3 + 1)
		m := Message{Kind: kind, Seq: seq, Key: key, Value: value}
		var e Enc
		e.Message(m)
		if len(e.Buf) != m.Size() {
			return false
		}
		d := Dec{Buf: e.Buf}
		got := d.Message()
		return d.Err == nil && got.Kind == kind && got.Seq == seq &&
			bytes.Equal(got.Key, key) && bytes.Equal(got.Value, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodedSizesMatch(t *testing.T) {
	f := func(key, value []byte) bool {
		var e Enc
		e.Entry(Entry{Key: key, Value: value})
		return len(e.Buf) == EncodedEntrySize(key, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Crash-image hardening: Replay walks frame headers and length prefixes read
// straight off a (possibly torn, possibly hostile) device image, so opening
// and replaying arbitrary region bytes must degrade cleanly — stop at the
// first invalid frame, never panic, never allocate beyond the region, and
// never yield a record that breaks the sequence chain. This mirrors
// internal/kv's FuzzDec one layer up: kv.Dec guards the field decoding,
// this guards the framing above it.

package wal

import (
	"testing"

	"iomodels/internal/kv"
)

// fuzzCap keeps the region small so the fuzzer explores framing, not RAM.
const fuzzCap = 1 << 16

// memDevice is a minimal wal.Device over a fixed byte array; offsets beyond
// the region are clipped rather than grown so a hostile length can never
// force an allocation.
type memDevice struct{ data []byte }

func (m *memDevice) Read(off int64, n int) []byte {
	p := make([]byte, n)
	if off < int64(len(m.data)) {
		copy(p, m.data[off:])
	}
	return p
}

func (m *memDevice) WriteAt(p []byte, off int64) {
	if off < int64(len(m.data)) {
		copy(m.data[off:], p)
	}
}

func fuzzConfig() Config {
	return Config{Offset: 0, Capacity: fuzzCap, GroupBytes: 512}
}

// validImage builds a committed two-epoch log image: records before a
// checkpoint (invalidated), records after it (live), and a pending
// uncommitted group (invisible to Replay).
func validImage(tb testing.TB) []byte {
	dev := &memDevice{data: make([]byte, fuzzCap)}
	l, err := New(fuzzConfig(), dev)
	if err != nil {
		tb.Fatal(err)
	}
	app := func(i int) {
		if _, err := l.Append(rec(i)); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		app(i)
	}
	if err := l.Commit(); err != nil {
		tb.Fatal(err)
	}
	l.Checkpoint()
	for i := 40; i < 100; i++ {
		app(i)
	}
	if err := l.Commit(); err != nil {
		tb.Fatal(err)
	}
	app(100) // pending, uncommitted
	return append([]byte(nil), dev.data...)
}

func FuzzReplay(f *testing.F) {
	base := validImage(f)

	// Seeds: the valid image, torn tails, bit flips in each structural
	// region, a cross-epoch resurrection attempt, and degenerate images.
	f.Add(append([]byte(nil), base...))
	torn := append([]byte(nil), base...) // tear the last frame mid-payload
	for i := len(torn) - 200; i < len(torn); i++ {
		torn[i] = 0
	}
	f.Add(torn)
	flip := func(off int) []byte {
		img := append([]byte(nil), base...)
		img[off] ^= 0x40
		return img
	}
	f.Add(flip(3))                          // header slot 0 magic
	f.Add(flip(headerBytes + 5))            // header slot 1 epoch
	f.Add(flip(2*headerBytes + 9))          // first frame's epoch field
	f.Add(flip(2*headerBytes + 21))         // first frame's payloadLen
	f.Add(flip(2*headerBytes + 40))         // payload byte (CRC must catch)
	hostile := append([]byte(nil), base...) // max payloadLen in first frame
	for i := 0; i < 4; i++ {
		hostile[2*headerBytes+20+i] = 0xff
	}
	f.Add(hostile)
	f.Add(make([]byte, fuzzCap)) // all zeros: no header
	f.Add([]byte{})              // empty: device reads see zeros

	f.Fuzz(func(t *testing.T, img []byte) {
		if len(img) > fuzzCap {
			img = img[:fuzzCap]
		}
		dev := &memDevice{data: make([]byte, fuzzCap)}
		copy(dev.data, img)
		l, err := Open(fuzzConfig(), dev)
		if err != nil {
			return // no valid header: rejected up front, nothing to replay
		}
		want := l.nextSeq - l.startSeq // committed records Open counted
		expect := l.startSeq
		n, err := l.Replay(func(r Record) bool {
			if len(r.Key) == 0 {
				t.Fatalf("replayed record %d has empty key", r.Seq)
			}
			switch r.Kind {
			case kv.Put, kv.Tombstone, kv.Upsert:
			default:
				t.Fatalf("replayed record %d has invalid kind %d", r.Seq, r.Kind)
			}
			if r.Seq != expect {
				t.Fatalf("sequence chain broken: got %d, want %d", r.Seq, expect)
			}
			expect++
			return true
		})
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if uint64(n) != want {
			t.Fatalf("replay visited %d records, Open counted %d", n, want)
		}
		if l.DurableBytes() > l.usable() {
			t.Fatalf("durable bytes %d beyond usable %d", l.DurableBytes(), l.usable())
		}
	})
}

// Recovery: reopening a durable engine image after a crash.
//
// The image a crash leaves behind is, by construction (durability.go), two
// superblock slots of which at least one is valid and names a whole
// checkpoint: its table record and every extent that record's translation
// table references are exactly as that seal left them, because no write
// lands in an extent the last seal references. A seal that tore in its table
// record or in its superblock fails a CRC, and the other slot wins, with the
// WAL replaying everything since that older checkpoint. Recover picks the
// newest valid superblock, loads its translation table and allocator, reopens
// the WAL, and hands the caller a Recovery from which the dictionaries are
// reattached (via each package's Open function and the record's manifests)
// and the committed WAL suffix is replayed. Nothing is copied or re-installed.
package engine

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"

	"iomodels/internal/kv"
	"iomodels/internal/sim"
	"iomodels/internal/storage"
	"iomodels/internal/wal"
)

// ErrNotDurableImage is returned by Recover when neither superblock slot
// names a sealed checkpoint — the store was never a durable engine image (or
// its configuration differs).
var ErrNotDurableImage = errors.New("engine: no valid checkpoint superblock (not a durable image, or wrong DurabilityConfig)")

// tableLoaded sees the table record Recover decodes (a test hook).
var tableLoaded = func([]byte) {}

// Recovery is the decoded crash state: manifests to reattach dictionaries
// from and the committed WAL suffix to replay.
type Recovery struct {
	eng     *Engine
	order   []string          // dictionary names in registration (= WAL id) order
	mans    map[string][]byte // name → manifest
	lastLSN uint64            // covered by the checkpoint
	maxSeq  uint64            // highest committed seq (checkpoint or suffix)
	pending []wal.Record      // committed records with Seq > lastLSN
	dicts   []Dictionary      // reattached, indexed by WAL id
}

// Recover reopens a durable engine image on store. cfg and dcfg must match
// the configuration the image was created with (region offsets are derived
// from them). It returns the rebuilt engine — durability re-enabled, pager
// empty — and a Recovery; the caller then reattaches each dictionary
// (Recovery.Attach, in the original registration order) and calls
// Recovery.Replay.
func Recover(cfg Config, dcfg DurabilityConfig, store storage.ByteStore, clk *sim.Engine) (*Engine, *Recovery, error) {
	e := FromStore(cfg, store, clk)
	d := e.layoutDurability(dcfg)

	// Pick the newest valid superblock.
	slot, epoch, payload := -1, uint64(0), []byte(nil)
	for s := 0; s < 2; s++ {
		if ep, rec, pl, ok := e.readSuper(s); ok && ep > epoch {
			slot, epoch, payload, d.record = s, ep, pl, rec
		}
	}
	if slot < 0 {
		return nil, nil, ErrNotDurableImage
	}
	tableLoaded(payload)

	// Decode: lastLSN, allocator, spare extents, manifests, translation table.
	dec := &kv.Dec{Buf: payload}
	lastLSN := dec.U64()
	snap := storage.AllocatorState{Next: int64(dec.U64()), Capacity: int64(dec.U64()), Free: decodeFree(dec)}
	spare := decodeFree(dec)
	r := &Recovery{eng: e, mans: make(map[string][]byte), lastLSN: lastLSN, maxSeq: lastLSN}
	nDicts := dec.U8()
	for i := uint8(0); i < nDicts && dec.Err == nil; i++ {
		name := string(dec.Bytes())
		r.order = append(r.order, name)
		r.mans[name] = bytes.Clone(dec.Bytes()) // trees keep what they decode from it
	}
	nPages := dec.U32()
	pages := make([]page, 0, nPages)
	for i := uint32(0); i < nPages && dec.Err == nil; i++ {
		pages = append(pages, page{name: int64(dec.U64()), phys: int64(dec.U64()), size: int64(dec.U64())})
	}
	if dec.Err != nil {
		return nil, nil, fmt.Errorf("engine: corrupt checkpoint table record: %w", dec.Err)
	}

	// Restore the allocator, the spares and the translation table — every
	// page in it is referenced by this seal — and reopen the log. The WAL's
	// own epoch/CRC machinery rejects any records from before the
	// checkpoint's truncation, so a reopened log never replays them; the
	// lastLSN filter below additionally drops records the checkpoint covers
	// but the truncation never reached (crash between seal and WAL reset).
	e.allocMu.Lock()
	e.alloc.LoadState(snap)
	e.pages, e.spare, e.sealed = pages, spare, epoch
	e.allocMu.Unlock()
	log, err := wal.Open(d.logConfig(), e.owner)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: wal reopen: %w", err)
	}
	_, err = log.Replay(func(rec wal.Record) bool {
		if rec.Seq > lastLSN {
			r.pending = append(r.pending, rec)
			if rec.Seq > r.maxSeq {
				r.maxSeq = rec.Seq
			}
		}
		return true
	})
	if err != nil {
		return nil, nil, fmt.Errorf("engine: wal replay: %w", err)
	}

	d.log = log
	d.epoch = epoch
	d.lastLSN = lastLSN
	d.nextSlot = slot ^ 1
	e.dur = d
	// The version layer restarts empty at the recovered LSN: snapshots are
	// volatile, so post-crash reads see exactly the committed prefix — new
	// snapshots pin log.LastSeq() (== CommittedSeq once Replay has run,
	// since replay applies records the log already holds without appending).
	e.mvcc = newVersionStore(d.cfg.MaxVersionsPerKey)
	e.mvcc.applied = log.LastSeq()
	e.pager.noSteal = true
	return e, r, nil
}

// readSuper reads and validates superblock slot s and the table record it
// points at; ok only if the header and record CRCs both pass.
func (e *Engine) readSuper(s int) (epoch uint64, rec extent, payload []byte, ok bool) {
	hdr := e.owner.Read(int64(s)*superBytes, superHdrBytes)
	hd := &kv.Dec{Buf: hdr}
	magic := hd.U32()
	epoch = hd.U64()
	rec = extent{off: int64(hd.U64()), size: int64(hd.U64())}
	plen := hd.U64()
	pcrc := hd.U32()
	hcrc := hd.U32()
	if hd.Err != nil || magic != superMagic || hcrc != crc32.ChecksumIEEE(hdr[:superHdrBytes-4]) || plen > uint64(rec.size) {
		return 0, extent{}, nil, false
	}
	payload = e.owner.Read(rec.off, int(plen))
	return epoch, rec, payload, crc32.ChecksumIEEE(payload) == pcrc
}

// Engine returns the rebuilt engine.
func (r *Recovery) Engine() *Engine { return r.eng }

// Dicts returns the recovered dictionary names in registration order — the
// order Attach calls must follow.
func (r *Recovery) Dicts() []string { return append([]string(nil), r.order...) }

// Manifest returns the checkpoint manifest for name. A registered
// dictionary that does not implement RecoverableDict has a nil manifest.
func (r *Recovery) Manifest(name string) ([]byte, bool) {
	m, ok := r.mans[name]
	return m, ok
}

// LastLSN returns the WAL sequence the checkpoint covers.
func (r *Recovery) LastLSN() uint64 { return r.lastLSN }

// Pending returns how many committed records await Replay.
func (r *Recovery) Pending() int { return len(r.pending) }

// CommittedSeq returns the highest mutation sequence number that survived
// the crash: checkpoint coverage plus the committed WAL suffix. The crash
// property test compares the recovered tree against the model folded over
// exactly the first CommittedSeq operations.
func (r *Recovery) CommittedSeq() uint64 { return r.maxSeq }

// Attach registers dict (reopened by the caller from Manifest(name)) as the
// recovered instance of name, re-wrapping it for write-ahead logging. It
// must be called in the original registration order — Dicts() — so WAL
// dictionary IDs line up; attaching a name the checkpoint does not know
// appends it as a new registration.
func (r *Recovery) Attach(name string, dict Dictionary) (*Durable, error) {
	d := r.eng.dur
	if want := len(d.dicts); want < len(r.order) && r.order[want] != name {
		return nil, fmt.Errorf("engine: attach order mismatch: got %q, want %q", name, r.order[want])
	}
	w, err := r.eng.Durable(name, dict)
	if err != nil {
		return nil, err
	}
	for int(w.id) >= len(r.dicts) {
		r.dicts = append(r.dicts, nil)
	}
	r.dicts[w.id] = dict
	return w, nil
}

// Replay applies the committed WAL suffix to the attached dictionaries —
// directly, not through the Durable wrappers, so replay is not re-logged
// (the records are already in the log) — and seals a fresh checkpoint so
// the recovered state is itself durable. It returns the number of records
// applied. A Durable logs only Puts and Tombstones (an upsert is logged as
// the Put of its post-image), so a record of any other kind is an error.
func (r *Recovery) Replay() (int, error) {
	for _, rec := range r.pending {
		if int(rec.Dict) >= len(r.dicts) || r.dicts[rec.Dict] == nil {
			return 0, fmt.Errorf("engine: replay record %d targets unattached dictionary %d", rec.Seq, rec.Dict)
		}
		if rec.Kind != kv.Put && rec.Kind != kv.Tombstone {
			return 0, fmt.Errorf("engine: replay record %d has kind %v (a durable log holds only Puts and Tombstones)", rec.Seq, rec.Kind)
		}
		m := Mutation{Kind: rec.Kind, Key: rec.Key, Value: rec.Value}
		m.ApplyTo(r.dicts[rec.Dict])
	}
	n := len(r.pending)
	r.pending = nil
	if err := r.eng.Checkpoint(); err != nil {
		return n, err
	}
	return n, nil
}

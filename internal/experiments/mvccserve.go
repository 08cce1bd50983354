// E22 (MVCC serving): snapshot point-read latency under write pressure.
// Before the MVCC refactor the server had one world view — a read admitted
// while the writer batch held the tree observed whatever the writer was in
// the middle of publishing, and every read shared the writer's locks and
// device queue. With LSN-pinned snapshots a chain-hit read is answered from
// the version layer, touching neither the batch read scheduler nor the
// state lock the writer holds during apply.
//
// The experiment measures three rounds on a fresh durable server each:
//
//	snap-idle    k readers pin snapshots, the hot set is overwritten once
//	             (so reads are chain hits), and NO writers run. This is the
//	             idle-writer baseline.
//	snap-loaded  identical, except background writer connections saturate
//	             the write path for the whole measurement window.
//	plain-loaded the same hot-key reads as ordinary Gets under the same
//	             write load: the pre-MVCC path, sharing the scheduler and
//	             the writer's state lock.
//
// The headline check is the ISSUE acceptance bound: snap-loaded p99 must
// stay within 1.5x of snap-idle p99 — write pressure must not leak into
// pinned reads — while plain-loaded shows what the shared-world-view path
// costs under the same load.

package experiments

import (
	"bytes"
	"fmt"

	"iomodels/internal/sim"
	"iomodels/internal/workload"
)

// MVCCServeConfig parameterizes E22.
type MVCCServeConfig struct {
	ServeBase
	PDAMDevice

	Readers      int // concurrent snapshot-reader connections
	OpsPerReader int // point reads each performs in the window
	Writers      int // background writer connections in loaded rounds
	HotKeys      int // pinned read working set, ids [0, HotKeys)
}

// DefaultMVCCServeConfig is laptop-scale but keeps the write path saturated
// for the whole read window.
func DefaultMVCCServeConfig() MVCCServeConfig {
	return MVCCServeConfig{
		ServeBase: ServeBase{
			Items:      20_000,
			NodeBlocks: 1,
			CacheBytes: 256 << 10,
			Spec:       workload.DefaultSpec(),
			Seed:       22,
		},
		PDAMDevice:   PDAMDevice{P: 16, BlockBytes: 4 << 10, StepTime: sim.Millisecond},
		Readers:      4,
		OpsPerReader: 150,
		Writers:      8,
		HotKeys:      256,
	}
}

// MVCCServeRow is one round's measurement. ChainHitPct is the fraction of
// engine snapshot reads answered by a version chain during the window; the
// plain round reports zero because ordinary Gets never consult chains.
type MVCCServeRow struct {
	Mode        string
	Readers     int
	Writers     int
	Reads       int64
	P50Us       float64
	P99Us       float64
	ChainHitPct float64
}

// MVCCServe runs E22: snap-idle, snap-loaded, plain-loaded.
func MVCCServe(cfg MVCCServeConfig) ([]MVCCServeRow, error) {
	var rows []MVCCServeRow
	for _, mode := range []string{"snap-idle", "snap-loaded", "plain-loaded"} {
		row, err := mvccServeRound(cfg, mode)
		if err != nil {
			return nil, fmt.Errorf("E22 %s: %w", mode, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// rewriteVal is the value the hot-set overwrite installs; pinned snapshots
// must keep reading the original load-time value underneath it.
func rewriteVal(cfg MVCCServeConfig, id uint64) []byte {
	return cfg.Spec.Value(uint64(cfg.Items) + id)
}

// mvccServeRound boots a fresh durable server, pins reader snapshots (snap
// modes), overwrites the hot set once, optionally saturates the write path,
// and measures the readers' point-read latency.
func mvccServeRound(cfg MVCCServeConfig, mode string) (MVCCServeRow, error) {
	snapMode := mode != "plain-loaded"
	row := MVCCServeRow{Mode: mode, Readers: cfg.Readers}
	if mode != "snap-idle" {
		row.Writers = cfg.Writers
	}

	sb, err := cfg.startPDAM(cfg.PDAMDevice, cfg.P, max(cfg.Readers, cfg.Writers), true)
	if err != nil {
		return row, err
	}
	defer sb.Close()

	// Dial the readers and, in snap modes, pin every snapshot BEFORE the
	// hot set is rewritten: the pinned view must predate the overwrite.
	readers, err := dialConns(sb.Addr, cfg.Readers, cfg.Seed)
	if err != nil {
		return row, err
	}
	defer readers.close()
	snaps := make([]uint64, cfg.Readers)
	if snapMode {
		for i, c := range readers {
			if snaps[i], _, err = c.SnapOpen(); err != nil {
				return row, fmt.Errorf("snap open: %w", err)
			}
		}
	}

	// One overwrite pass over the hot set. With snapshots live this records
	// a version chain per hot key, so every pinned read below is a chain
	// hit; without (plain round) it just warms the same pages the readers
	// will touch, keeping cache state comparable across rounds.
	_, err = closedLoop(sb.Addr, 1, cfg.HotKeys, 0, nil, func(c *conn, j int) error {
		return c.Put(cfg.Spec.Key(uint64(j)), rewriteVal(cfg, uint64(j)))
	})
	if err != nil {
		return row, fmt.Errorf("hot-set rewrite: %w", err)
	}

	// Background write pressure: closed-loop writers hammering the non-hot
	// tail of the key space until the readers are done. (Not the hot set:
	// unbounded rewrites there would blow past MaxVersionsPerKey and expire
	// the pinned snapshots — that failure mode has its own test; E22
	// measures latency.)
	stop := make(chan struct{})
	writers := make(chan error, 1)
	go func() {
		_, err := closedLoop(sb.Addr, row.Writers, -1, cfg.Seed^0xE22, stop, func(c *conn, _ int) error {
			id := uint64(cfg.HotKeys) + uint64(c.rng.Int63n(cfg.Items-int64(cfg.HotKeys)))
			return c.Put(cfg.Spec.Key(id), cfg.Spec.Value(id^1))
		})
		writers <- err
	}()

	before := sb.Eng.MVCCStats()
	lat, readErr := readers.run(cfg.OpsPerReader, nil, func(c *conn, _ int) error {
		id := uint64(c.rng.Int63n(int64(cfg.HotKeys)))
		key := cfg.Spec.Key(id)
		// The pinned view predates the rewrite; the live view is the
		// rewrite. Either answer being wrong voids the round.
		var (
			val []byte
			ok  bool
			err error
		)
		want := rewriteVal(cfg, id)
		if snapMode {
			val, ok, err = c.SnapGet(snaps[c.i], key)
			want = cfg.Spec.Value(id)
		} else {
			val, ok, err = c.Get(key)
		}
		switch {
		case err != nil:
			return fmt.Errorf("read id %d: %w", id, err)
		case !ok:
			return fmt.Errorf("read id %d: lost key", id)
		case !bytes.Equal(val, want):
			return fmt.Errorf("read id %d: stale/live mix-up: got %q want %q", id, val, want)
		}
		return nil
	})
	after := sb.Eng.MVCCStats()
	close(stop)
	if err := <-writers; readErr == nil && err != nil {
		readErr = fmt.Errorf("background writer: %w", err)
	}
	if readErr != nil {
		return row, readErr
	}
	if snapMode {
		for i, c := range readers {
			if err := c.SnapRelease(snaps[i]); err != nil {
				return row, fmt.Errorf("snap release: %w", err)
			}
		}
	}

	row.Reads, row.P50Us, row.P99Us = lat.Count, lat.P50Us, lat.P99Us
	dHits := after.ChainHits - before.ChainHits
	dMiss := after.ChainMisses - before.ChainMisses
	if dHits+dMiss > 0 {
		row.ChainHitPct = 100 * float64(dHits) / float64(dHits+dMiss)
	}
	return row, nil
}

// RenderMVCCServe formats E22, one row per round.
func RenderMVCCServe(rows []MVCCServeRow) string {
	return renderRows("E22 (MVCC serving): snapshot point-read latency under write pressure vs the shared-world-view path", rows, []column[MVCCServeRow]{
		{"round", func(r MVCCServeRow) string { return r.Mode }},
		{"readers", func(r MVCCServeRow) string { return intStr(r.Readers) }},
		{"writers", func(r MVCCServeRow) string { return intStr(r.Writers) }},
		{"reads", func(r MVCCServeRow) string { return intStr(int(r.Reads)) }},
		{"p50 µs", func(r MVCCServeRow) string { return fmt0(r.P50Us) }},
		{"p99 µs", func(r MVCCServeRow) string { return fmt0(r.P99Us) }},
		{"chain hit%", func(r MVCCServeRow) string { return f2(r.ChainHitPct) }},
	})
}

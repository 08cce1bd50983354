// The replica's half of WAL shipping: a Shipper tails a primary's ship
// stream over the wire protocol and applies each batch through the local
// server's own durable write path (Server.ApplyShipped), so the replica is
// itself crash-safe and can be promoted by sealing its log tail.
//
// The pull position doubles as the acknowledgement: pulling with
// after = <last applied LSN> tells the primary everything at or before it
// is applied, which is what releases the primary's sync-ship gate.
//
// Pulls use the stamped-ship extension: each record carries the wall-clock
// instant it became durable on the primary plus its trace identity, so the
// shipper feeds the replica server's replication-lag estimator one sample
// per pull (seconds from the stamps, LSNs from the stream positions) and a
// traced write's trace continues onto the replica's apply/commit spans.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"iomodels/internal/engine"
	"iomodels/internal/server"
	"iomodels/internal/wal"
)

// shipPullBatch is the most records one pull asks for.
const shipPullBatch = 1024

// ShipperConfig tunes a Shipper.
type ShipperConfig struct {
	// Primary is the primary's TCP address.
	Primary string
	// Opts are the connection options (the request timeout bounds how long
	// a dead primary can stall one pull).
	Opts server.Options
	// Interval is the poll delay while caught up (default 2ms). Behind the
	// stream, the shipper pulls back-to-back.
	Interval time.Duration
	// Logf, if set, receives shipper lifecycle messages (reconnects, gap).
	Logf func(format string, args ...interface{})
}

// Shipper tails one primary into one local replica server.
type Shipper struct {
	cfg ShipperConfig
	srv *server.Server

	mu     sync.Mutex //lint:lockrank 90
	c      *server.Client
	cursor uint64 // last applied primary LSN (the pull/ack position)
	err    error  // terminal failure (ship gap, apply error)
	closed bool

	stop chan struct{}
	done chan struct{}
}

// NewShipper builds a shipper feeding srv from the primary. Call Start.
func NewShipper(srv *server.Server, cfg ShipperConfig) *Shipper {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	return &Shipper{
		cfg:    cfg,
		srv:    srv,
		cursor: srv.ShipAppliedLSN(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Start launches the pull loop.
func (sh *Shipper) Start() { go sh.loop() }

// Stop halts the loop and waits for it to exit: after Stop returns, no
// further ApplyShipped runs. Idempotent; severs an in-flight pull.
func (sh *Shipper) Stop() {
	sh.mu.Lock()
	if !sh.closed {
		sh.closed = true
		close(sh.stop)
		if sh.c != nil {
			sh.c.Close() // unblock a pull waiting on a dead primary
		}
	}
	sh.mu.Unlock()
	<-sh.done
}

// Cursor returns the last applied primary LSN.
func (sh *Shipper) Cursor() uint64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.cursor
}

// Err returns the terminal error, if the loop gave up (ship gap or a local
// apply failure). nil while healthy or merely reconnecting.
func (sh *Shipper) Err() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.err
}

// Promote is the server OnPromote body for this replica: stop the shipper
// (after it returns, no shipped apply can race the writer loop), seal the
// local log tail with a WAL sync, and report the LSN the node serves from.
// Wire it into the server Config as a closure over the late-built Shipper.
func (sh *Shipper) Promote(eng *engine.Engine) (uint64, error) {
	sh.Stop()
	if err := eng.Sync(); err != nil {
		return 0, fmt.Errorf("seal log tail: %w", err)
	}
	return sh.Cursor(), nil
}

// loop pulls until stopped: connect (with backoff), pull, apply, advance.
func (sh *Shipper) loop() {
	defer close(sh.done)
	backoff := 10 * time.Millisecond
	const maxBackoff = 500 * time.Millisecond
	for {
		select {
		case <-sh.stop:
			return
		default:
		}
		c, err := sh.conn()
		if err != nil {
			sh.cfg.Logf("shipper: dial %s: %v (retrying)", sh.cfg.Primary, err)
			if !sh.sleep(backoff) {
				return
			}
			backoff = min(2*backoff, maxBackoff)
			continue
		}
		recs, committed, _, err := c.ShipPullStamped(sh.Cursor(), shipPullBatch)
		if err != nil {
			if errors.Is(err, server.ErrShipGap) {
				sh.fail(fmt.Errorf("shipper: %w", err))
				return
			}
			sh.dropConn()
			sh.cfg.Logf("shipper: pull: %v (reconnecting)", err)
			if !sh.sleep(backoff) {
				return
			}
			backoff = min(2*backoff, maxBackoff)
			continue
		}
		backoff = 10 * time.Millisecond
		if len(recs) == 0 {
			// Caught up: positional lag is whatever the primary committed
			// past the cursor (normally 0), temporal lag is 0 by definition —
			// there is nothing unapplied to be stale.
			sh.noteLag(0, committed, sh.Cursor())
			if !sh.sleep(sh.cfg.Interval) {
				return
			}
			continue
		}
		// Stop may have fired while the pull was in flight; promotion relies
		// on no apply starting after Stop returns, so re-check first.
		select {
		case <-sh.stop:
			return
		default:
		}
		// Strip the ship stamps down to the WAL records ApplyShipped takes.
		// The trace identities ride the records' transient fields, so the
		// replica's commit spans link back to the primary's; the commit
		// wall-times feed the lag estimator below and go no further.
		batch := make([]wal.Record, len(recs))
		for i := range recs {
			batch[i] = recs[i].Record
		}
		if err := sh.srv.ApplyShipped(batch); err != nil {
			sh.fail(fmt.Errorf("shipper: apply: %w", err))
			return
		}
		applied := recs[len(recs)-1].Seq
		sh.mu.Lock()
		sh.cursor = applied
		sh.mu.Unlock()
		sh.noteLag(recs[len(recs)-1].CommitWallNs, committed, applied)
	}
}

// noteLag feeds one replication-lag sample to the replica server: how long
// ago the newest just-applied record committed on the primary (0 when the
// pull was empty — caught up), and how many committed LSNs remain
// unapplied. Negative skew clamps in the estimator.
func (sh *Shipper) noteLag(commitWallNs int64, committed, applied uint64) {
	var lagSec float64
	if commitWallNs > 0 {
		lagSec = time.Duration(time.Now().UnixNano() - commitWallNs).Seconds()
	}
	var lagLSNs int64
	if committed > applied {
		lagLSNs = int64(committed - applied)
	}
	sh.srv.NoteShipLag(lagSec, lagLSNs)
}

// conn returns the live connection, dialing if needed. The dial runs with
// mu released: a dead primary can stall DialOpts for the full dial timeout,
// and holding mu across it would stall Stop — and therefore Promote, which
// is the failover critical path. The dialed connection is installed only
// after re-checking closed under mu.
func (sh *Shipper) conn() (*server.Client, error) {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return nil, errors.New("shipper stopped")
	}
	if sh.c != nil && sh.c.Err() == nil {
		c := sh.c
		sh.mu.Unlock()
		return c, nil
	}
	if sh.c != nil {
		sh.c.Close()
		sh.c = nil
	}
	sh.mu.Unlock()

	c, err := server.DialOpts(sh.cfg.Primary, sh.cfg.Opts)
	if err != nil {
		return nil, err
	}

	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		// Stop fired mid-dial; it never saw this connection, so close it
		// here rather than leak it.
		c.Close()
		return nil, errors.New("shipper stopped")
	}
	// loop is the only dialer, so nothing else can have installed a
	// connection while mu was released.
	sh.c = c
	return c, nil
}

func (sh *Shipper) dropConn() {
	sh.mu.Lock()
	if sh.c != nil {
		sh.c.Close()
		sh.c = nil
	}
	sh.mu.Unlock()
}

func (sh *Shipper) fail(err error) {
	sh.cfg.Logf("%v", err)
	sh.mu.Lock()
	sh.err = err
	sh.mu.Unlock()
}

// sleep waits d or until Stop; false means stop fired.
func (sh *Shipper) sleep(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-sh.stop:
		return false
	case <-timer.C:
		return true
	}
}

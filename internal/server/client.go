// Client is the Go client for the wire protocol: one TCP connection, one
// outstanding request at a time (the closed-loop shape the Lemma 13
// experiment assumes — concurrency comes from many clients, not pipelining).
//
// Every round trip runs under per-request read/write deadlines (Options.
// RequestTimeout), so a hung or partitioned server surfaces as ErrTimeout
// instead of blocking the caller forever — the property the cluster router's
// failover depends on. A transport or framing failure leaves the connection
// mid-frame with the stream position unknown; the client marks itself
// poisoned and every later call fails fast with ErrPoisoned until the caller
// reconnects, instead of desynchronizing the protocol.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"iomodels/internal/engine"
	"iomodels/internal/kv"
)

// ErrBusy is returned when the server sheds the request under admission
// control. The request was not executed; the caller may retry.
var ErrBusy = errors.New("server busy")

// ErrSnapExpired is returned for snapshot operations against an id the
// server no longer holds (never opened, already released, or the version
// horizon moved past its pin). Open a fresh snapshot and retry.
var ErrSnapExpired = errors.New("snapshot expired")

// ErrTimeout is returned when a round trip exceeds the request timeout: the
// server is hung, partitioned, or dead. The connection is poisoned (the
// reply may still arrive mid-frame later); reconnect to retry. The cluster
// router treats it as the failover trigger.
var ErrTimeout = errors.New("client: request timed out")

// ErrPoisoned is returned by every call after a transport or framing error
// left the connection's stream position unknown. Reconnect; retrying on the
// same connection would desynchronize the protocol.
var ErrPoisoned = errors.New("client: connection poisoned by an earlier framing error (reconnect)")

// ErrNotPrimary is returned when a mutation is sent to a replica. The
// router re-points at the shard's current primary and retries.
var ErrNotPrimary = errors.New("server: not the primary for this shard")

// ErrShipGap is returned by ShipPull when the requested position has been
// trimmed from the primary's ship ring: this subscriber must re-bootstrap.
var ErrShipGap = errors.New("server: ship position trimmed (re-bootstrap the replica)")

// Options tunes a connection. Zero values select defaults.
type Options struct {
	// ConnectTimeout bounds Dial's TCP connect (default 10s).
	ConnectTimeout time.Duration
	// RequestTimeout bounds each round trip: the write deadline covers the
	// request frame, the read deadline the reply frame. Default 5s;
	// negative disables deadlines entirely (tests that deliberately block).
	RequestTimeout time.Duration
}

// DefaultConnectTimeout and DefaultRequestTimeout are the Dial defaults.
const (
	DefaultConnectTimeout = 10 * time.Second
	DefaultRequestTimeout = 5 * time.Second
)

func (o Options) withDefaults() Options {
	if o.ConnectTimeout == 0 {
		o.ConnectTimeout = DefaultConnectTimeout
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	if o.RequestTimeout < 0 {
		o.RequestTimeout = 0
	}
	return o
}

// Client is a synchronous protocol client. Not safe for concurrent use; open
// one per goroutine.
type Client struct {
	conn     net.Conn
	r        *bufio.Reader
	w        *bufio.Writer
	timeout  time.Duration // per-request deadline (0 = none)
	poisoned error         // sticky transport/framing failure
	// Busy counts ErrBusy replies seen, a convenience for load generators.
	Busy int64
	// Traced counts requests sent with a trace context attached (TraceNext).
	Traced int64

	nextTC    kv.TraceContext // armed by TraceNext, consumed by roundTrip
	traceSeed uint64          // splitmix state for trace/span id generation
}

// Dial connects to a kvserve address with default Options.
func Dial(addr string) (*Client, error) {
	return DialOpts(addr, Options{})
}

// DialOpts connects with explicit timeouts.
func DialOpts(addr string, o Options) (*Client, error) {
	o = o.withDefaults()
	conn, err := net.DialTimeout("tcp", addr, o.ConnectTimeout)
	if err != nil {
		return nil, err
	}
	c := NewClient(conn)
	c.timeout = o.RequestTimeout
	return c, nil
}

// NewClient wraps an established connection (no request deadlines; use
// DialOpts for the timeout-guarded client).
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 64<<10),
		w:    bufio.NewWriterSize(conn, 64<<10),
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Err returns the sticky poison error (nil while the connection is usable).
func (c *Client) Err() error { return c.poisoned }

// fail poisons the client and maps err for the caller: deadline expiries
// become ErrTimeout, everything else is a transport error as-is.
func (c *Client) fail(err error) error {
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		err = fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	c.poisoned = fmt.Errorf("%w: %v", ErrPoisoned, err)
	return err
}

// TraceNext arms the next request with a fresh sampled trace context and
// returns it: the request's frame carries the context, the server opens a
// linked span for it (bypassing sampling), and a traced write's identity
// rides the ship stream onto the replica. The returned SpanID names the
// caller's own client-side span — a load generator that records wall
// timestamps around the traced call can export a span under that id and
// the merged Chrome trace will draw the client→server arrow. Ids come from
// a per-client splitmix sequence seeded from the wall clock at first use,
// so concurrent clients and processes do not collide in practice.
func (c *Client) TraceNext() kv.TraceContext {
	if c.traceSeed == 0 {
		c.traceSeed = uint64(time.Now().UnixNano()) | 1
	}
	next := func() uint64 {
		c.traceSeed += 0x9e3779b97f4a7c15
		x := c.traceSeed
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	c.nextTC = kv.TraceContext{TraceID: next(), SpanID: next(), Flags: kv.TraceFlagSampled}
	return c.nextTC
}

// roundTrip sends req and returns the decoded reply, having mapped every
// failure status to its error (statusSentinels); with an error the reply is
// the zero value.
func (c *Client) roundTrip(req request) (reply, error) {
	if c.poisoned != nil {
		return reply{}, c.poisoned
	}
	if c.nextTC.Valid() {
		req.tc = c.nextTC
		c.nextTC = kv.TraceContext{}
		c.Traced++
	}
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return reply{}, c.fail(err)
		}
	}
	if err := writeFrame(c.w, encodeRequest(req)); err != nil {
		return reply{}, c.fail(err)
	}
	if err := c.w.Flush(); err != nil {
		return reply{}, c.fail(err)
	}
	buf, err := readFrame(c.r, DefaultMaxFrame)
	if err != nil {
		return reply{}, c.fail(err)
	}
	rep, err := decodeReply(req, buf)
	if err != nil {
		return reply{}, err
	}
	if rep.status == StatusOK || rep.status == StatusNotFound {
		return rep, nil
	}
	sentinel := statusSentinels[rep.status] // decodeReply vouched for the status
	if rep.status == StatusBusy {
		c.Busy++
	}
	if sentinel == nil {
		return reply{}, fmt.Errorf("server: %s", rep.msg)
	}
	return reply{}, fmt.Errorf("%w: %s", sentinel, rep.msg)
}

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	_, err := c.roundTrip(request{op: OpPing})
	return err
}

// Get fetches key; ok is false if absent.
func (c *Client) Get(key []byte) (value []byte, ok bool, err error) {
	rep, err := c.roundTrip(request{op: OpGet, key: key})
	return rep.value, rep.status == StatusOK, err
}

// Put inserts or replaces key.
func (c *Client) Put(key, value []byte) error {
	_, err := c.roundTrip(request{op: OpPut, key: key, value: value})
	return err
}

// Delete removes key, reporting whether the server accepted the delete.
func (c *Client) Delete(key []byte) (accepted bool, err error) {
	rep, err := c.roundTrip(request{op: OpDelete, key: key})
	return rep.accepted, err
}

// Upsert applies a blind delta to a counter key.
func (c *Client) Upsert(key []byte, delta int64) error {
	_, err := c.roundTrip(request{op: OpUpsert, key: key, delta: delta})
	return err
}

// Scan returns up to limit entries in [lo, hi); empty bounds are unbounded.
func (c *Client) Scan(lo, hi []byte, limit int) ([]kv.Entry, error) {
	rep, err := c.roundTrip(request{op: OpScan, lo: lo, hi: hi, limit: limit})
	return rep.entries, err
}

// SnapOpen pins a server-side snapshot at the current applied LSN and
// returns its connection-local id and the pinned LSN. Snapshots are scoped
// to this connection and bounded per connection; release them with
// SnapRelease when done (closing the connection releases all).
func (c *Client) SnapOpen() (id, lsn uint64, err error) {
	rep, err := c.roundTrip(request{op: OpSnapOpen})
	return rep.snapID, rep.lsn, err
}

// SnapOpenAt pins a snapshot at a specific LSN (time travel). The LSN must
// be within the engine's retained window; otherwise ErrSnapExpired.
func (c *Client) SnapOpenAt(lsn uint64) (id, pinned uint64, err error) {
	rep, err := c.roundTrip(request{op: OpSnapOpen, atLSN: true, lsn: lsn})
	return rep.snapID, rep.lsn, err
}

// SnapGet reads key as of the snapshot id's pinned LSN.
func (c *Client) SnapGet(id uint64, key []byte) (value []byte, ok bool, err error) {
	rep, err := c.roundTrip(request{op: OpSnapGet, snapID: id, key: key})
	return rep.value, rep.status == StatusOK, err
}

// SnapScan returns up to limit entries in [lo, hi) as of the snapshot id's
// pinned LSN; empty bounds are unbounded.
func (c *Client) SnapScan(id uint64, lo, hi []byte, limit int) ([]kv.Entry, error) {
	rep, err := c.roundTrip(request{op: OpSnapScan, snapID: id, lo: lo, hi: hi, limit: limit})
	return rep.entries, err
}

// SnapRelease releases a snapshot id, letting the engine reclaim versions
// once no snapshot pins them. Releasing an unknown id is an error
// (ErrSnapExpired) so leaks are visible.
func (c *Client) SnapRelease(id uint64) error {
	_, err := c.roundTrip(request{op: OpSnapRelease, snapID: id})
	return err
}

// Stats fetches the server's JSON stats snapshot (the same document the
// HTTP /stats endpoint serves).
func (c *Client) Stats() ([]byte, error) {
	rep, err := c.roundTrip(request{op: OpStats})
	return rep.value, err
}

// NodeInfo is the shard-hello document: who this node is in the cluster and
// where its replication stream stands.
type NodeInfo struct {
	ShardID int
	Shards  int
	Role    Role
	// CommittedLSN is the node's highest durable LSN (the ship stream's
	// committed position on a primary).
	CommittedLSN uint64
	// AppliedLSN is the highest shipped primary LSN this node has applied
	// (0 unless the node is or was a replica).
	AppliedLSN uint64
}

// Hello asks the node who it is: shard identity, role, and replication
// positions. The router validates topology with it at connect time, and the
// health probe uses it as a liveness+role check.
func (c *Client) Hello() (NodeInfo, error) {
	rep, err := c.roundTrip(request{op: OpHello})
	return rep.info, err
}

// ShipPull tails the node's WAL ship stream: up to max durable records with
// Seq > after, plus the stream's committed and floor LSNs. Pulling with
// after = my applied LSN both fetches the next batch and acknowledges
// everything applied so far (the primary's sync-ship gate releases on it).
// A caught-up pull waits at the primary for the next commit, for at most
// 100 ms, so the request timeout must exceed that. The pull uses the
// stamped-ship extension: each record also carries the wall-clock instant
// it became durable on the primary and its trace identity, so the replica
// can measure replication lag in seconds and continue carried traces on its
// apply path. An old server answers the extended frame with a protocol
// error.
func (c *Client) ShipPull(after uint64, max int) (recs []engine.ShipRecord, committed, floor uint64, err error) {
	rep, err := c.roundTrip(request{op: OpShipPull, lsn: after, limit: max, stamps: true})
	return rep.recs, rep.committed, rep.floor, err
}

// Promote asks a replica to become the shard's primary: it stops applying
// the ship stream, seals its log tail, and starts accepting writes. Returns
// the LSN the promoted node serves from. Idempotent on an already-promoted
// node.
func (c *Client) Promote() (lsn uint64, err error) {
	rep, err := c.roundTrip(request{op: OpPromote})
	return rep.lsn, err
}

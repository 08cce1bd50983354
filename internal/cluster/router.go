// The client-side router: one logical dictionary over N shards. Point ops
// hash to a shard; scans fan out to every shard in parallel and merge.
//
// Failover lives here, not in a coordinator: when a shard's connection
// times out, poisons, or answers StatusNotPrimary, the router probes the
// shard's other endpoints with Hello, promotes the first live replica it
// finds, re-points, and retries the operation once. The retried op is a
// Put/Delete/Upsert replay or a read — all idempotent — so a duplicate
// delivery across the failover is safe.
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"iomodels/internal/kv"
	"iomodels/internal/server"
)

// ShardSpec is one shard's endpoints: the primary first, then any replicas.
// Failover probes them in order after the failed endpoint.
type ShardSpec struct {
	Primary  string
	Replicas []string
}

func (sp ShardSpec) endpoints() []string {
	return append([]string{sp.Primary}, sp.Replicas...)
}

// ParseTopology parses the -cluster flag's syntax (loadgen, kvtop): shards
// separated by ';', each shard's endpoints separated by '/', the primary
// first.
func ParseTopology(s string) ([]ShardSpec, error) {
	var specs []ShardSpec
	for _, shard := range strings.Split(s, ";") {
		eps := strings.Split(strings.TrimSpace(shard), "/")
		for i := range eps {
			eps[i] = strings.TrimSpace(eps[i])
		}
		if eps[0] == "" {
			return nil, fmt.Errorf("cluster: shard %d has no primary endpoint", len(specs))
		}
		specs = append(specs, ShardSpec{Primary: eps[0], Replicas: eps[1:]})
	}
	return specs, nil
}

// RouterConfig tunes a Router.
type RouterConfig struct {
	// Shards lists each shard's endpoints; len(Shards) fixes the ring size.
	Shards []ShardSpec
	// Opts are the per-connection client options. The default 5s request
	// timeout bounds how long a dead primary can stall an op before
	// failover kicks in; lower it for faster failover.
	Opts server.Options
}

// Router routes dictionary operations across the cluster. Safe for
// concurrent use; operations on the same shard serialize on its connection
// (the protocol is one-outstanding-request). For closed-loop load, give
// each worker its own Router.
type Router struct {
	ring   *Ring
	shards []*shardConn
}

// shardConn is one shard's connection state: the spec, the endpoint
// currently believed primary, and the live client (lazily dialed).
type shardConn struct {
	mu        sync.Mutex //lint:lockrank 95
	index     int
	spec      ShardSpec
	opts      server.Options
	active    string // endpoint currently treated as primary
	c         *server.Client
	failovers int // completed re-points
	probes    int // endpoints probed with Hello during failovers
	promotes  int // replicas this router promoted to primary
}

// NewRouter builds a router over the shard topology. Connections are dialed
// lazily; a dead primary at construction time is handled by the same
// failover path as one that dies later.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: no shards")
	}
	r := &Router{ring: NewRing(len(cfg.Shards))}
	for i, sp := range cfg.Shards {
		if sp.Primary == "" {
			return nil, fmt.Errorf("cluster: shard %d has no primary endpoint", i)
		}
		r.shards = append(r.shards, &shardConn{
			index: i, spec: sp, opts: cfg.Opts, active: sp.Primary,
		})
	}
	return r, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return r.ring.Shards() }

// ShardFor returns the shard index a key routes to.
func (r *Router) ShardFor(key []byte) int { return r.ring.Shard(key) }

// Close closes every shard connection.
func (r *Router) Close() {
	for _, sc := range r.shards {
		sc.mu.Lock()
		if sc.c != nil {
			sc.c.Close()
			sc.c = nil
		}
		sc.mu.Unlock()
	}
}

// Failovers counts completed failovers across all shards (observability for
// tests and loadgen).
func (r *Router) Failovers() int {
	return r.Stats().Failovers
}

// RouterStats is the router's failover-path counter snapshot, summed across
// shards: how many times it re-pointed, how many endpoints it probed with
// Hello along the way, and how many replicas it promoted itself.
type RouterStats struct {
	Failovers int `json:"failovers"`
	Probes    int `json:"probes"`
	Promotes  int `json:"promotes"`
}

// Stats snapshots the router's failover counters.
func (r *Router) Stats() RouterStats {
	var out RouterStats
	for _, sc := range r.shards {
		sc.mu.Lock()
		out.Failovers += sc.failovers
		out.Probes += sc.probes
		out.Promotes += sc.promotes
		sc.mu.Unlock()
	}
	return out
}

// Get fetches key from its shard.
func (r *Router) Get(key []byte) (value []byte, ok bool, err error) {
	err = r.do(key, func(c *server.Client) error {
		value, ok, err = c.Get(key)
		return err
	})
	return value, ok, err
}

// Put writes key to its shard.
func (r *Router) Put(key, value []byte) error {
	return r.do(key, func(c *server.Client) error { return c.Put(key, value) })
}

// Delete removes key from its shard.
func (r *Router) Delete(key []byte) (accepted bool, err error) {
	err = r.do(key, func(c *server.Client) error {
		accepted, err = c.Delete(key)
		return err
	})
	return accepted, err
}

// Upsert applies a blind delta on the key's shard.
func (r *Router) Upsert(key []byte, delta int64) error {
	return r.do(key, func(c *server.Client) error { return c.Upsert(key, delta) })
}

// Scan fans the range out to every shard in parallel, merges the sorted
// per-shard results, and truncates to limit. Each shard holds a disjoint
// key set, so the merge is a sort of concatenated runs.
func (r *Router) Scan(lo, hi []byte, limit int) ([]kv.Entry, error) {
	type shardResult struct {
		entries []kv.Entry
		err     error
	}
	results := make([]shardResult, len(r.shards))
	var wg sync.WaitGroup
	for i, sc := range r.shards {
		wg.Add(1)
		go func(i int, sc *shardConn) {
			defer wg.Done()
			err := sc.do(func(c *server.Client) error {
				entries, err := c.Scan(lo, hi, limit)
				results[i].entries = entries
				return err
			})
			results[i].err = err
		}(i, sc)
	}
	wg.Wait()
	var merged []kv.Entry
	for i := range results {
		if results[i].err != nil {
			return nil, fmt.Errorf("cluster: scan shard %d: %w", i, results[i].err)
		}
		merged = append(merged, results[i].entries...)
	}
	sort.Slice(merged, func(a, b int) bool {
		return bytes.Compare(merged[a].Key, merged[b].Key) < 0
	})
	if len(merged) > limit {
		merged = merged[:limit]
	}
	return merged, nil
}

// do runs fn against the key's shard with failover.
func (r *Router) do(key []byte, fn func(*server.Client) error) error {
	return r.shards[r.ring.Shard(key)].do(fn)
}

// do runs fn on the shard's active connection; on a failover trigger it
// re-points (possibly promoting) and retries once.
func (sc *shardConn) do(fn func(*server.Client) error) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		c, err := sc.connLocked()
		if err == nil {
			//lint:allowblock sc.mu intentionally serializes the shard: one request at a time per connection is the failover protocol's correctness mechanism (no second request can observe a half-failed-over endpoint)
			err = fn(c)
			if err == nil {
				return nil
			}
			if !failoverTrigger(err, c) {
				return err
			}
		}
		lastErr = err
		if ferr := sc.failoverLocked(); ferr != nil {
			return fmt.Errorf("cluster: shard %d failover after %v: %w", sc.index, lastErr, ferr)
		}
	}
	return fmt.Errorf("cluster: shard %d unavailable: %w", sc.index, lastErr)
}

// failoverTrigger reports whether err means "this node is gone or wrong",
// as opposed to a protocol-level reply (Busy, durability error, ...) that
// the same node answered and a different node would not fix.
func failoverTrigger(err error, c *server.Client) bool {
	return errors.Is(err, server.ErrNotPrimary) || c.Err() != nil
}

// connLocked returns the live client, dialing the active endpoint if needed.
func (sc *shardConn) connLocked() (*server.Client, error) {
	if sc.c != nil && sc.c.Err() == nil {
		return sc.c, nil
	}
	if sc.c != nil {
		sc.c.Close()
		sc.c = nil
	}
	c, err := server.DialOpts(sc.active, sc.opts)
	if err != nil {
		return nil, err
	}
	sc.c = c
	return c, nil
}

// failoverLocked re-points the shard: drop the dead connection, probe the
// shard's endpoints (starting after the failed one) with Hello, adopt the
// first matching node — promoting it first if it is still a replica.
func (sc *shardConn) failoverLocked() error {
	if sc.c != nil {
		sc.c.Close()
		sc.c = nil
	}
	eps := sc.spec.endpoints()
	// Rotate so the probe starts at the endpoint after the failed one: the
	// usual failure is "the primary died", and its replicas come next.
	start := 0
	for i, ep := range eps {
		if ep == sc.active {
			start = i + 1
			break
		}
	}
	var probeErrs []error
	for k := 0; k < len(eps); k++ {
		ep := eps[(start+k)%len(eps)]
		sc.probes++
		c, err := server.DialOpts(ep, sc.opts)
		if err != nil {
			probeErrs = append(probeErrs, fmt.Errorf("%s: %w", ep, err))
			continue
		}
		info, err := c.Hello()
		if err != nil {
			c.Close()
			probeErrs = append(probeErrs, fmt.Errorf("%s: hello: %w", ep, err))
			continue
		}
		if info.ShardID != sc.index {
			c.Close()
			probeErrs = append(probeErrs, fmt.Errorf("%s: serves shard %d, want %d", ep, info.ShardID, sc.index))
			continue
		}
		switch info.Role {
		case server.RoleReplica:
			if _, err := c.Promote(); err != nil {
				c.Close()
				probeErrs = append(probeErrs, fmt.Errorf("%s: promote: %w", ep, err))
				continue
			}
			sc.promotes++
		case server.RolePrimary, server.RoleSolo:
			// already serving
		}
		sc.active = ep
		sc.c = c
		sc.failovers++
		return nil
	}
	return fmt.Errorf("no live node (%v)", errors.Join(probeErrs...))
}

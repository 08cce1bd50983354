#!/bin/sh
# Repo verification, in increasing order of cost:
#
#   gofmt      formatting drift
#   go vet     stock static analysis (atomic, copylocks, lostcancel, ...)
#   iolint     the repo's own go/analysis suite (cmd/iolint): no panic on
#              the durability path, no engine bypass, no discarded
#              durable-write or wire-client error and no dispatch on error
#              text, lock acquisition in lockrank order and no blocking
#              under an exclusive lock
#   go build   everything compiles, including cmd/ and examples/
#   go test    tier-1 correctness, then the two packages whose tests drive
#              real goroutines over TCP onto the virtual timeline — the
#              server, and the serving experiments E20-E24 — three times at
#              GOMAXPROCS 1 and 2: their virtual columns must not depend on
#              how the host schedules them
#   one-of     grep gate: the duplicates internal/node, storage.Topology,
#              the reply codec, cluster.ParseTopology, engine.Session, the
#              pager's latch wait, the experiments' serving harness,
#              lintutil.FuncPattern, the store's block table, the read
#              scheduler's virtual slots, kv.Dec's views, the store's
#              read-only views, the checkpoint's translation table, the
#              pager's intrusive LRU ring, the typed atomic counters, the
#              experiment registry, the tree harness, the long-polled
#              ship pull, the one write mutation, the trees' one
#              head-column key search (kv.Search), the one declaration
#              per /metrics family, the B-tree leaf that is its page, the
#              Bε-tree's one message merge and one leaf walk, the
#              stepper's ring of step records, the pager's release by
#              pin, the one closed-loop driver (internal/closedloop), the
#              one may-held walk (internal/analysis/locks), the one
#              escape-hatch rule (lintutil.Report) and the B-tree
#              writer's one page free list removed
#              (hand-written boots, anonymous device-hint assertions,
#              hand-built replies, per-tool -cluster splitters, per-tree
#              Session types, per-method busy-retry loops and a fourth ioCtx
#              type, per-experiment client loops, per-analyzer pattern
#              parsers, a flat store image grown by copying it, a read batch
#              launched by a wall-clock grace timer, a decoder that copies
#              every key and value and callers that copy its copy, a tree,
#              LSM, WAL or recovery decode site that reads into a buffer it
#              just allocated (the B-tree writer's load into a page from
#              its free list is the one ReadAt site), journal regions, a journal reader, a pass
#              that installs captured pages a second time, a
#              container/list LRU that allocates per Unpin and a raw
#              atomic.AddInt64-style call on a plain integer, a cmd/ main
#              other than cmd/repro that drives internal/experiments, a
#              second file of internal/experiments that assembles an engine,
#              a ship poll interval and a sleep after an empty ship pull, a
#              request-to-mutation converter, a per-server apply switch, trace
#              ids handed to the log through a durability field, a second
#              trace-context type, a second copy of the upsert fold, a
#              binary search in internal/btree or internal/betree by
#              sort.Search, sort.Find, slices.BinarySearch or a for lo < hi
#              loop, a kvserve_
#              family name written outside promWriter's family and sample,
#              a B-tree leaf encoded or decoded entry by entry, and a
#              Bε-tree buffer fed message by message or a third site that
#              applies a key's messages, a map or a swept delete( in
#              the stepper's bookkeeping, and an Unpin(, MarkDirty(, Grow(
#              or Swap( of a page named by a PageID( conversion, a
#              server.ErrBusy comparison in non-test cmd/ or
#              internal/experiments Go, a busy backoff outside
#              internal/closedloop, bench/ aside, a WalkHeld or LockSet
#              outside internal/analysis/locks, an analyzer that
#              writes its own "needs a reason" diagnostic, and a
#              sync.Pool or second [][]byte field in internal/btree)
#              stay removed; the serving stack reads the wall clock or arms a
#              timer at 13 sites in server/cluster/engine/node, none of them
#              in the scheduler (the sync-ship gate and a parked ship pull
#              share one, in engine.Watermark.Wait; the shipper's reconnect
#              backoff keeps its own)
#   bench      ship-ring and WAL commit-path benchmarks at a fixed iteration
#              count: seconds when the path is O(1), minutes if the ring
#              ever copies itself per append again
#   smoke      kvserve + loadgen + kvtop end to end: boot the server binary,
#              drive it over TCP, poll the live topology with the aggregator,
#              verify clean SIGINT shutdown; the other arms internal/node
#              boots (the mq device, a durable Bε-tree) under a short burst;
#              plus a durable boot that preloads past the ship ring's
#              capacity under a deadline and a peak-memory bound (the node
#              holds what it wrote, not its 64 MiB of log address space)
#   go test -race   the concurrent engine path: k sim processes and
#                   host-parallel detached clients through the sharded pager,
#                   plus an explicit pass over the crash/recovery suite
#
# The race pass skips the full-scale single-client experiment harnesses
# (see skipUnderRace in internal/experiments) — they have no goroutine
# concurrency to check and would push the package past its timeout.
#
# CI runs this script verbatim (.github/workflows/ci.yml); run it locally
# before pushing. The full-scale EXPERIMENTS.md check (`go run ./cmd/repro
# -check EXPERIMENTS.md`, about a quarter of an hour) is CI's separate
# experiments job; tier-1 renders the same rows at reduced scale.
set -eu
cd "$(dirname "$0")/.."

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt needed on:" >&2
	echo "$fmt" >&2
	exit 1
fi

go vet ./...

# iolint: the custom analyzer suite (see DESIGN.md §7), each analyzer an
# invariant no type or test holds: nopanic (no panic on the durability path
# without a reasoned //lint:allowpanic), enginebypass (raw device IO only in
# the engine layer), errcontract (no discarded durable-write error; wire
# client errors handled via errors.Is, never discarded or text-matched), and
# locks (//lint:lockrank acquisition order and no channel/IO/wait ops under
# an exclusive mutex, cross-package via facts). The stock passes run once, in
# go vet above. Exits non-zero on any diagnostic.
go run ./cmd/iolint ./...

go build ./...
go test ./...

# Host-scheduling independence: a server connection is a real goroutine on a
# virtual timeline, so the tests that count device steps through one run
# repeatedly, on one core and on two. (A latch wait that charged virtual time
# per runtime.Gosched pass made one run in ten of these red; see DESIGN.md §5.)
go test -count=3 -cpu=1,2 ./internal/server
go test -count=3 -cpu=1,2 -run 'TestE2[0-4]' ./internal/experiments

# One of each: internal/node is the only place a server is assembled, and
# storage.Topology the only way a device states its shape. A new boot path or
# a new anonymous hint assertion is a second copy growing back; fail on it.
dups=$(grep -rn --include='*.go' -e 'interface{ ParallelismHint' -e 'interface{ QueueHint' . | grep -v '^./vendor/' || true)
if [ -n "$dups" ]; then
	echo "anonymous device-hint assertion (declare it in storage.Topology instead):" >&2
	echo "$dups" >&2
	exit 1
fi
dups=$(grep -rn --include='*.go' 'server\.New(' . | grep -v -e '^./vendor/' -e '_test\.go:' -e '^./internal/node/' || true)
if [ -n "$dups" ]; then
	echo "server.New outside internal/node (boot through node.Start instead):" >&2
	echo "$dups" >&2
	exit 1
fi
# Likewise the wire reply format lives in internal/server/protocol.go alone,
# the -cluster syntax in cluster.ParseTopology, and the per-client read
# session in engine.Session.
dups=$(grep -rn --include='*.go' -e 'encodeStatus(' -e 'uint8(Status' . | grep -v -e '^./vendor/' -e '_test\.go:' -e '^./internal/server/protocol\.go:' || true)
if [ -n "$dups" ]; then
	echo "reply bytes built outside internal/server/protocol.go (return a reply; encodeReply encodes it):" >&2
	echo "$dups" >&2
	exit 1
fi
dups=$(grep -rn --include='*.go' -e 'func parseCluster' -e 'Split([^)]*";")' ./cmd | grep -v '_test\.go:' || true)
if [ -n "$dups" ]; then
	echo "a second -cluster parser under cmd/ (use cluster.ParseTopology):" >&2
	echo "$dups" >&2
	exit 1
fi
dups=$(grep -rn --include='*.go' 'func (s \*Session)' ./internal/btree ./internal/betree ./internal/lsm ./internal/cobtree || true)
if [ -n "$dups" ]; then
	echo "a tree grew its own Session methods (engine.Session is the one; implement engine.Tree):" >&2
	echo "$dups" >&2
	exit 1
fi

# The pager waits for a latch in one place (shard.lockUnlatched), where the
# rule "a host-scheduled waiter charges no virtual time" lives once; a client
# keeps time in one of two ways (cooperative sim, host-scheduled), with no
# private third; the serving experiments dial from one driver; and the
# analyzers' entry-point patterns parse in lintutil.
n=$(grep -c 'c\.wait()' internal/engine/pager.go || true)
if [ "$n" -ne 1 ]; then
	echo "internal/engine/pager.go calls c.wait() $n times (wait for a latch through shard.lockUnlatched)" >&2
	exit 1
fi
dups=$(grep -rn --include='*.go' 'detachedCtx' . | grep -v '^./vendor/' || true)
if [ -n "$dups" ]; then
	echo "detachedCtx is back (Engine.Detached is a shared-clock client on a private clock):" >&2
	echo "$dups" >&2
	exit 1
fi
n=$(grep -l 'server\.Dial(' internal/experiments/*.go | grep -vc '_test\.go$' || true)
if [ "$n" -ne 1 ]; then
	echo "server.Dial( in $n non-test files of internal/experiments (dial through dial in harness.go)" >&2
	exit 1
fi
# One closed-loop driver (internal/closedloop, DESIGN.md §10): loadgen and the
# serving experiments retry a busy reply only through its Run, with its one
# backoff. A server.ErrBusy comparison under cmd/ or internal/experiments is
# a client loop's own retry growing back, and a busy backoff's names, its
# 200 µs base or its [d/2, d] jitter outside the driver a second backoff.
# bench/ keeps its own until it adopts the driver (ROADMAP direction 1(e)).
dups=$(grep -rn --include='*.go' 'ErrBusy' cmd internal/experiments | grep -v '_test\.go:' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$dups" ]; then
	echo "a server.ErrBusy comparison in cmd/ or internal/experiments (return the error: closedloop's Run retries a busy reply):" >&2
	echo "$dups" >&2
	exit 1
fi
dups=$(grep -rnE --include='*.go' 'busyDelay|busyBase|busyMax|nextBusyDelay|sleepJittered|200 \* time\.Microsecond|/2 \+ time\.Duration\(' . | grep -v -e '^./vendor/' -e '^./bench/' -e '^./internal/closedloop/' -e '_test\.go:' || true)
if [ -n "$dups" ]; then
	echo "a busy backoff outside internal/closedloop (retry through closedloop's Run; its Backoff is the one):" >&2
	echo "$dups" >&2
	exit 1
fi
# The tree experiments build, load and time a tree one way (treeharness.go):
# a second file that assembles an engine is a hand-built tree run growing back.
n=$(grep -l -e 'engine\.New(' -e 'engine\.FromStore(' internal/experiments/*.go | grep -vc '_test\.go$' || true)
if [ "$n" -gt 1 ]; then
	echo "engine.New( or engine.FromStore( in $n non-test files of internal/experiments (build and load a tree through load in treeharness.go):" >&2
	grep -l -e 'engine\.New(' -e 'engine\.FromStore(' internal/experiments/*.go | grep -v '_test\.go$' >&2
	exit 1
fi
dups=$(grep -rn --include='*.go' 'type watched' ./internal/analysis | grep -v -e '/lintutil/' -e '/testdata/' || true)
if [ -n "$dups" ]; then
	echo "an analyzer declares its own pattern type (use lintutil.FuncPattern):" >&2
	echo "$dups" >&2
	exit 1
fi
# One lock analyzer walks the may-held lock sets (internal/analysis/locks,
# where the walk is unexported), and one rule waives or rejects an escape
# hatch (lintutil.Report): a walk or lock set elsewhere is a second lock
# analyzer growing back, and an analyzer that rejects a bare hatch itself a
# second copy of the rule.
dups=$(grep -rniE --include='*.go' 'WalkHeld|LockSet' . | grep -v -e '^./vendor/' -e '^./internal/analysis/locks/' || true)
if [ -n "$dups" ]; then
	echo "a may-held lock walk outside internal/analysis/locks (add the check to the locks analyzer):" >&2
	echo "$dups" >&2
	exit 1
fi
dups=$(grep -rn --include='*.go' 'needs a reason' ./internal/analysis ./cmd/iolint | grep -v -e '/lintutil/' -e '/testdata/' || true)
if [ -n "$dups" ]; then
	echo "an analyzer writes its own hatch diagnostic (report through lintutil.Report):" >&2
	echo "$dups" >&2
	exit 1
fi

# EXPERIMENTS.md is an output of one registry (internal/experiments/registry.go)
# and one command, cmd/repro: a second main that drives the experiments is a
# switchboard of flags growing back.
dups=$(grep -ln '"iomodels/internal/experiments"' cmd/*/*.go | grep -v -e '^cmd/repro/' -e '_test\.go$' || true)
if [ -n "$dups" ]; then
	echo "a cmd/ main other than cmd/repro imports internal/experiments (add a registry row instead):" >&2
	echo "$dups" >&2
	exit 1
fi

# The store image is a table of blocks whose bytes live in runs the writes
# allocated: no growth policy, nothing that copies the image to extend it.
dups=$(grep -n -e 'func (s \*Store) ensure' -e 'copy(grown' internal/storage/storage.go || true)
if [ -n "$dups" ]; then
	echo "internal/storage/storage.go grows the image by copying it again (write into the block table):" >&2
	echo "$dups" >&2
	exit 1
fi
# A page is read in place (DESIGN.md §5): a decode site takes the read-only
# bytes engine.Client.Read lends it, a view of the store's image, and never
# reads into a buffer it has just allocated. One site reads a private copy
# instead: the B-tree writer's mutation-path load, into a page from its free
# list, which it edits in place and recycles.
readat='^internal/btree/btree\.go:[0-9]*:	c\.ReadAt(page, int64(id))$'
sites=$(grep -n 'ReadAt(' internal/betree/*.go internal/btree/*.go internal/lsm/*.go internal/wal/*.go internal/engine/recover.go | grep -v '_test\.go:' || true)
dups=$(echo "$sites" | grep -v -e '^$' -e "$readat" || true)
n=$(echo "$sites" | grep -c "$readat" || true)
if [ -n "$dups" ] || [ "$n" -ne 1 ]; then
	echo "a decode site reads into its own buffer again (decode what Client.Read returns; only the B-tree writer's load reads into a page, $n such sites):" >&2
	echo "$dups" >&2
	exit 1
fi
# The B-tree writer's pages come from one free list (Tree.pages, filled by
# givePage up to freePages): a sync.Pool or a second [][]byte field in
# internal/btree is a second page cache growing back beside it.
dups=$(grep -nE -e 'sync\.Pool' -e '^[[:space:]]+[A-Za-z_]+[[:space:]]+\[\]\[\]byte' internal/btree/*.go | grep -v -e '_test\.go:' -e ':	pages \[\]\[\]byte$' -e ':	pivots  *\[\]\[\]byte //' || true)
if [ -n "$dups" ]; then
	echo "a second page free list in internal/btree (take and give pages through Tree.pages):" >&2
	echo "$dups" >&2
	exit 1
fi

# A checkpoint writes each dirty page once, to the extent the translation
# table's write rule picks, and seals the table (DESIGN.md §5): no journal
# regions, no journal reader, and no captured page list installed in place
# after a seal, or re-installed by recovery.
dups=$(grep -n -e 'journalOff' -e 'readJournal' -e 'pageWrite' internal/engine/*.go | grep -v '_test\.go:' || true)
if [ -n "$dups" ]; then
	echo "the double-write journal is back in internal/engine (write each page once through the translation table):" >&2
	echo "$dups" >&2
	exit 1
fi

# A cached read allocates nothing (DESIGN.md §5): the pager's LRU is an
# intrusive ring through its items, not a container/list whose every Unpin
# allocates an element.
dups=$(grep -ln '"container/list"' internal/engine/*.go | grep -v '_test\.go$' || true)
if [ -n "$dups" ]; then
	echo "container/list is back in internal/engine (link items into the shard's LRU ring):" >&2
	echo "$dups" >&2
	exit 1
fi

# The read scheduler is a function of the cursors it is handed: no clock, no
# timer, and no grace option anywhere from the flag to the lane
# (TestVirtualTimeScopeImportsNoClock covers the import with the device
# models'; this names the file and covers the knob).
dups=$(grep -n '"time"' internal/server/scheduler.go || true)
if [ -n "$dups" ]; then
	echo "internal/server/scheduler.go imports time (a read starts at max(its cursor, its slot's free instant); nothing waits on a clock):" >&2
	echo "$dups" >&2
	exit 1
fi
dups=$(grep -rn --include='*.go' -e 'BatchGrace' -e 'AfterFunc' -e '"grace"' internal/server internal/node internal/experiments cmd/kvserve || true)
if [ -n "$dups" ]; then
	echo "a batch grace window or a timer is back on the serving path:" >&2
	echo "$dups" >&2
	exit 1
fi
# A caught-up ship pull waits at the primary for the next commit
# (serveShipPull), so the replica keeps no poll: no interval option on the
# shipper or in E24's harness, and nothing that sleeps after an empty pull.
dups=$(grep -nw -e 'Interval' -e 'PullInterval' internal/cluster/*.go internal/experiments/shiplag.go | grep -v '_test\.go:' || true)
if [ -n "$dups" ]; then
	echo "a ship poll interval is back (a caught-up pull waits at the primary for the next commit):" >&2
	echo "$dups" >&2
	exit 1
fi
body=$(sed -n '/^func (sh \*Shipper) loop() {$/,/^}$/p' internal/cluster/replica.go | awk '/len\(recs\) == 0 \{/ {on = 1} on {print} on && /^\t\t}$/ {exit}')
if [ -z "$body" ] || echo "$body" | grep -q -e 'sleep(' -e 'Sleep(' -e 'NewTimer(' -e 'After('; then
	echo "Shipper.loop waits after an empty pull again (pull again at once; the primary holds a caught-up pull):" >&2
	echo "${body:-the empty-pull branch of Shipper.loop not found in internal/cluster/replica.go}" >&2
	exit 1
fi

# A write is one engine.Mutation from the request (or the shipped record) to
# the log, applied by Durable.apply or Mutation.ApplyTo (DESIGN.md §5): no
# request-to-mutation converter, no per-server apply switch, no trace ids
# handed to the log through the durability struct, one trace-context type
# (kv.TraceContext), and the upsert fold in one file of the write path.
dups=$(grep -rn --include='*.go' -e 'nextTraceID' -e 'func toMutation' -e 'applyPlain' -e 'obsTC' . | grep -v -e '^./vendor/' -e '_test\.go:' || true)
if [ -n "$dups" ]; then
	echo "a second copy of the write path is back (build an engine.Mutation; apply it with ApplyBatchNoSync or ApplyTo):" >&2
	echo "$dups" >&2
	exit 1
fi
dups=$(grep -rn --include='*.go' 'type TraceContext' . | grep -v -e '^./vendor/' -e '^./internal/kv/' || true)
if [ -n "$dups" ]; then
	echo "a second trace-context type (carry kv.TraceContext):" >&2
	echo "$dups" >&2
	exit 1
fi
n=$(grep -l 'kv\.Message{Kind: kv\.Upsert' internal/engine/*.go internal/server/*.go | grep -vc '_test\.go$' || true)
if [ "$n" -gt 1 ]; then
	echo "the upsert fold is written in $n non-test files of internal/engine and internal/server (fold through engine's fold helper):" >&2
	grep -l 'kv\.Message{Kind: kv\.Upsert' internal/engine/*.go internal/server/*.go | grep -v '_test\.go$' >&2
	exit 1
fi

# Both trees search a key run in one place, kv.Search, which probes the run's
# column of 8-byte key heads before it loads a key (DESIGN.md §5): a binary
# search in either tree package loads a key view, or a slot and then a key,
# two dependent loads, on every probe again.
dups=$(grep -n -e 'sort\.Search(' -e 'sort\.Find(' -e 'slices\.BinarySearch' -e 'for lo < hi' internal/btree/*.go internal/betree/*.go | grep -v '_test\.go:' || true)
if [ -n "$dups" ]; then
	echo "a binary search in internal/btree or internal/betree (search a key run with kv.Search):" >&2
	echo "$dups" >&2
	exit 1
fi

# A Bε-tree flush is a merge (DESIGN.md §5): messages enter a buffer through
# buffer.merge of a sorted run, and a key's messages are applied in GetAs and
# in the one leaf walk (walkLeaf) that a flush into a leaf and a scan share.
# A second .add( call site is a per-message loop growing back, and a third
# kv.ApplyAll( a second leaf walk.
n=$(grep -n '\.add(' internal/betree/*.go | grep -vc '_test\.go:' || true)
if [ "$n" -gt 1 ]; then
	echo ".add( at $n non-test sites in internal/betree (move messages with buffer.merge of a sorted run):" >&2
	grep -n '\.add(' internal/betree/*.go | grep -v '_test\.go:' >&2
	exit 1
fi
n=$(grep -n 'kv\.ApplyAll(' internal/betree/*.go | grep -vc '_test\.go:' || true)
if [ "$n" -gt 2 ]; then
	echo "kv.ApplyAll( at $n non-test sites in internal/betree (GetAs and walkLeaf are the two; merge entries with messages through walkLeaf):" >&2
	grep -n 'kv\.ApplyAll(' internal/betree/*.go | grep -v '_test\.go:' >&2
	exit 1
fi

# The stepper keeps its steps in one ring of step records, and its prune only
# raises a floor (DESIGN.md §11, Bounded bookkeeping): a map[ or delete( in
# non-test internal/mqssd is a per-step map, or its sweep, growing back.
dups=$(grep -n -e 'map\[' -e 'delete(' internal/mqssd/*.go | grep -v '_test\.go:' || true)
if [ -n "$dups" ]; then
	echo "a map or a delete( in internal/mqssd (book steps in the ring of step records; prune raises the floor):" >&2
	echo "$dups" >&2
	exit 1
fi

# A pager caller releases a page through the *engine.Pin that pinned it
# (DESIGN.md §5): an Unpin(, MarkDirty(, Grow( or Swap( call with a PageID(
# argument in non-test Go looks the page up again, a hash, a lock round and a
# map lookup per call.
dups=$(grep -rnE --include='*.go' '(Unpin|MarkDirty|Grow|Swap)\([^)]*PageID\(' . | grep -v -e '^./vendor/' -e '_test\.go:' || true)
if [ -n "$dups" ]; then
	echo "a pager call keyed by a PageID( (release through the *engine.Pin that Pin, TryPin, Put or PutClean returned):" >&2
	echo "$dups" >&2
	exit 1
fi

# A B-tree leaf is its page (DESIGN.md §5): a load validates the extent and
# keeps it, a Get searches it in place, a write-back seals and hands it over.
# A kv.Enc.Entry or kv.Dec.Entry call in internal/btree is a leaf translated
# entry by entry, and allocating per load or store, again.
dups=$(grep -n '\.Entry(' internal/btree/*.go | grep -v '_test\.go:' || true)
if [ -n "$dups" ]; then
	echo "kv entry encode or decode in internal/btree (a leaf is its page; read and write it in place, node.go):" >&2
	echo "$dups" >&2
	exit 1
fi

# A /metrics family is declared once (DESIGN.md §12): a scalar by the prom tag
# on the StatsSnapshot field that carries its value, a labelled family or a
# histogram by a family call on promWriter. The kvserve_ prefix is written
# only in promWriter's family and sample methods (internal/server/metrics.go);
# on any other non-comment line of non-test Go it is a hand-listed family
# growing back.
dups=$(grep -rn --include='*.go' 'kvserve_' . | grep -v -e '^./vendor/' -e '_test\.go:' -e '^./internal/server/metrics\.go:' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
dups="$dups$(awk '/^func \(p promWriter\) (family|sample)\(/ {m = 1} !m && /kvserve_/ && !/^[[:space:]]*\/\// {print FILENAME ":" FNR ":" $0} m && /^}/ {m = 0}' internal/server/metrics.go)"
if [ -n "$dups" ]; then
	echo "kvserve_ written outside promWriter.family and promWriter.sample (declare a scalar family in a prom tag, a labelled one with a family call):" >&2
	echo "$dups" >&2
	exit 1
fi

# Counters shared between goroutines are typed (DESIGN.md §7): a field read
# through sync/atomic is an atomic.Int64 (or kin), so a plain access to it
# cannot be written and vet's copylocks rejects a copy.
dups=$(grep -rnE --include='*.go' 'atomic\.(Add|Load|Store|Swap|CompareAndSwap)(Int|Uint)(32|64)\(' . | grep -v -e '^./vendor/' -e '_test\.go:' || true)
if [ -n "$dups" ]; then
	echo "a raw sync/atomic call on a plain integer (declare the field atomic.Int64 and call its methods):" >&2
	echo "$dups" >&2
	exit 1
fi

# A decoded byte string is a view of the buffer it was decoded from (DESIGN.md
# §5): kv.Dec.Bytes neither allocates nor copies, and no caller copies what
# it returns by appending it to nil (a field that must outlive its buffer is
# copied once, with kv.Entry/Message.Clone or bytes.Clone, where that is
# decided).
body=$(sed -n '/^func (d \*Dec) Bytes() \[\]byte {$/,/^}$/p' internal/kv/kv.go)
if [ -z "$body" ] || echo "$body" | grep -q -e 'make(' -e 'copy('; then
	echo "kv.Dec.Bytes copies again (return the capacity-capped view d.Buf[off:off+n:off+n]):" >&2
	echo "${body:-func (d *Dec) Bytes not found in internal/kv/kv.go}" >&2
	exit 1
fi
dups=$(grep -rnE --include='*.go' 'append\(\[\]byte\(nil\), [a-z]+\.Bytes\(\)\.\.\.\)' internal || true)
if [ -n "$dups" ]; then
	echo "a decoded field copied by appending it to nil (copy once with Clone, or keep the view):" >&2
	echo "$dups" >&2
	exit 1
fi

# Commit-path smoke: a shipped ApplyBatch with the ring below and at capacity,
# and wal.Append with and without the commit hook. At 2000 iterations this is
# well under a second; a ring that reallocates per append (the pre-PR-13
# cliff: 4.5 ms per record at capacity) turns it into minutes.
go test -run '^$' -bench 'ShipAppend|WALAppend' -benchtime 2000x ./internal/engine ./internal/wal

# Server smoke test: boot kvserve on the in-memory PDAM device, wait for
# the listening line, fire a loadgen burst at it, and verify a clean
# SIGINT shutdown (exit 0). This exercises the real binaries end to end —
# TCP framing, the batch read scheduler, group commit, graceful close —
# that unit tests only reach in-process.
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"; kill $kvpid $clpids 2>/dev/null || true' EXIT
kvpid=""
clpids=""

# waitaddr LOGFILE [TENTHS]: echo the address a kvserve instance reported
# within TENTHS x 0.1 s (default 100), or fail.
waitaddr() {
	wa_addr=""
	wa_i=0
	while [ $wa_i -lt "${2:-100}" ]; do
		wa_addr=$(sed -n 's/^kvserve: listening on //p' "$1" 2>/dev/null | head -n 1)
		[ -n "$wa_addr" ] && break
		sleep 0.1
		wa_i=$((wa_i + 1))
	done
	if [ -z "$wa_addr" ]; then
		echo "kvserve never reported its address:" >&2
		cat "$1" >&2
		return 1
	fi
	echo "$wa_addr"
}
go build -o "$smoke" ./cmd/kvserve ./cmd/loadgen ./cmd/kvtop
"$smoke/kvserve" -addr 127.0.0.1:0 -items 2000 -durable >"$smoke/kvserve.log" 2>&1 &
kvpid=$!
addr=$(waitaddr "$smoke/kvserve.log")
"$smoke/loadgen" -addr "$addr" -clients 4 -ops 200 -ycsb b -keys 2000 >"$smoke/loadgen.log" 2>&1 || {
	echo "loadgen failed:" >&2
	cat "$smoke/loadgen.log" >&2
	exit 1
}
grep -q "ops/s" "$smoke/loadgen.log" || {
	echo "loadgen printed no throughput:" >&2
	cat "$smoke/loadgen.log" >&2
	exit 1
}
# MVCC smoke on the same live server: open a snapshot, write past it, and
# require the pinned read to return the pre-write value (loadgen -snapcheck
# prints "snapcheck: ok" only if the stale read came back byte-identical).
"$smoke/loadgen" -addr "$addr" -snapcheck >"$smoke/snapcheck.log" 2>&1 || {
	echo "snapcheck failed:" >&2
	cat "$smoke/snapcheck.log" >&2
	exit 1
}
grep -q "snapcheck: ok" "$smoke/snapcheck.log" || {
	echo "snapcheck printed no verdict:" >&2
	cat "$smoke/snapcheck.log" >&2
	exit 1
}
kill -INT "$kvpid"
wait "$kvpid" || {
	echo "kvserve did not shut down cleanly:" >&2
	cat "$smoke/kvserve.log" >&2
	exit 1
}
kvpid=""

# The other arms internal/node boots, which the pdam B-tree smoke above does
# not reach: the multi-queue device (per-queue read lanes from its topology)
# and a durable Bε-tree (the Durable wrapper, preload sync and group commit
# over a message-buffered tree). Each takes a short loadgen burst and must
# exit 0 on SIGINT.
for arm in "-device mq" "-tree betree -node 65536 -durable"; do
	# shellcheck disable=SC2086 # $arm is a flag list
	"$smoke/kvserve" -addr 127.0.0.1:0 -items 2000 $arm >"$smoke/kvserve-arm.log" 2>&1 &
	kvpid=$!
	addr=$(waitaddr "$smoke/kvserve-arm.log")
	"$smoke/loadgen" -addr "$addr" -clients 4 -ops 50 -ycsb b -keys 2000 >"$smoke/loadgen-arm.log" 2>&1 || {
		echo "loadgen against kvserve $arm failed:" >&2
		cat "$smoke/loadgen-arm.log" "$smoke/kvserve-arm.log" >&2
		exit 1
	}
	kill -INT "$kvpid"
	wait "$kvpid" || {
		echo "kvserve $arm did not shut down cleanly:" >&2
		cat "$smoke/kvserve-arm.log" >&2
		exit 1
	}
	kvpid=""
done

# Durable boot past the ship ring's capacity (70,000 preloaded records >
# DefaultShipCap 65,536): a fifth of a second when the at-capacity append is
# O(1) and the store image is allocated chunk by chunk as it is written. The
# slice-copy ring spent ~20 s on the last 4,464 appends alone, and a flat image
# grown by allocate-and-copy took 0.7-2.4 s and peaked at ~720 MiB to hold
# ~25 MiB of pages (the two journals the checkpoint had then and the log put
# the first tree page at byte 328 MiB; the log alone puts it at 64 MiB); the
# 5 s deadline and the 256 MiB peak-RSS bound fail if either cost returns.
"$smoke/kvserve" -addr 127.0.0.1:0 -items 70000 -durable >"$smoke/kvserve-boot.log" 2>&1 &
kvpid=$!
waitaddr "$smoke/kvserve-boot.log" 50 >/dev/null
hwm=$(awk '/^VmHWM:/ {print $2}' "/proc/$kvpid/status")
if [ -z "$hwm" ] || [ "$hwm" -gt $((256 * 1024)) ]; then
	echo "kvserve (durable boot) peak RSS at listen is ${hwm:-unknown} kB, bound 262144:" >&2
	cat "$smoke/kvserve-boot.log" >&2
	exit 1
fi
kill -INT "$kvpid"
wait "$kvpid" || {
	echo "kvserve (durable boot) did not shut down cleanly:" >&2
	cat "$smoke/kvserve-boot.log" >&2
	exit 1
}
kvpid=""

# Cluster smoke: a 2-shard cluster (shard 0 with a sync-ship primary and a
# WAL-shipping replica, shard 1 solo) under loadgen's acked-write audit.
# The shard-0 primary is SIGKILLed mid-run; the router must fail over and
# promote the replica, and every write the cluster acknowledged — including
# those acked just before the kill — must read back afterwards. loadgen
# prints "0 lost acks" only if the audit is clean.
"$smoke/kvserve" -addr 127.0.0.1:0 -durable -shard 0 -shards 2 -sync-ship >"$smoke/cl-p0.log" 2>&1 &
clpids=$!
p0addr=$(waitaddr "$smoke/cl-p0.log")
"$smoke/kvserve" -addr 127.0.0.1:0 -durable -shard 0 -shards 2 -replica-of "$p0addr" >"$smoke/cl-r0.log" 2>&1 &
clpids="$clpids $!"
"$smoke/kvserve" -addr 127.0.0.1:0 -durable -shard 1 -shards 2 >"$smoke/cl-p1.log" 2>&1 &
clpids="$clpids $!"
r0addr=$(waitaddr "$smoke/cl-r0.log")
p1addr=$(waitaddr "$smoke/cl-p1.log")
"$smoke/loadgen" -cluster "$p0addr/$r0addr;$p1addr" -verify -clients 4 -ops 300 >"$smoke/cl-verify.log" 2>&1 &
lgpid=$!
sleep 2
# kvtop smoke against the live topology, before the primary is killed:
# -once -json must report every node reachable with the replica's lag
# estimator populated, and -watch with a generous lag bound must agree the
# cluster is healthy (exit 0). Both run the real aggregator end to end —
# topology parsing, the wire Stats op, the alarm evaluation.
"$smoke/kvtop" -cluster "$p0addr/$r0addr;$p1addr" -once -json >"$smoke/kvtop.json" 2>&1 || {
	echo "kvtop -once failed:" >&2
	cat "$smoke/kvtop.json" >&2
	exit 1
}
grep -q '"healthy": true' "$smoke/kvtop.json" || {
	echo "kvtop reported an unhealthy cluster:" >&2
	cat "$smoke/kvtop.json" >&2
	exit 1
}
grep -q '"ship_lag"' "$smoke/kvtop.json" || {
	echo "kvtop document carries no replication-lag block:" >&2
	cat "$smoke/kvtop.json" >&2
	exit 1
}
"$smoke/kvtop" -cluster "$p0addr/$r0addr;$p1addr" -watch -max-lag-seconds 30 >"$smoke/kvtop-watch.log" 2>&1 || {
	echo "kvtop -watch alarmed on a healthy cluster:" >&2
	cat "$smoke/kvtop-watch.log" >&2
	exit 1
}
p0pid=$(echo "$clpids" | cut -d' ' -f1)
kill -9 "$p0pid" 2>/dev/null || true
wait "$lgpid" || {
	echo "cluster failover audit failed:" >&2
	cat "$smoke/cl-verify.log" >&2
	echo "--- replica log:" >&2
	cat "$smoke/cl-r0.log" >&2
	exit 1
}
grep -q "0 lost acks" "$smoke/cl-verify.log" || {
	echo "cluster audit printed no clean verdict:" >&2
	cat "$smoke/cl-verify.log" >&2
	exit 1
}
grep -q "acked" "$smoke/cl-verify.log"
kill $clpids 2>/dev/null || true
for pid in $clpids; do
	wait "$pid" 2>/dev/null || true
done
clpids=""

# iotrace smoke: the end-to-end tracing pipeline as a CLI — load a B-tree
# on the simulated disk, trace queries under the span tracer, and require
# (a) the live residual table renders and (b) the affine refinement beats
# the DAM on read residuals (-assert exits non-zero otherwise): the paper's
# §4.2 prediction-error ordering, recomputed on every CI run.
go run ./cmd/iotrace -tree b -device hdd -items 30000 -cache 1048576 -ops 150 -assert >"$smoke/iotrace.log" 2>&1 || {
	echo "iotrace smoke failed:" >&2
	cat "$smoke/iotrace.log" >&2
	exit 1
}
grep -q "model residuals" "$smoke/iotrace.log" || {
	echo "iotrace printed no residual table:" >&2
	cat "$smoke/iotrace.log" >&2
	exit 1
}

# The same smoke on the multi-queue device: the residual table must carry
# the mq model's row (the fourth model, E23) and -assert requires the mq
# prediction to beat the DAM on read residuals.
go run ./cmd/iotrace -tree b -device mq -node 4096 -items 30000 -cache 1048576 -ops 300 -clients 32 -assert >"$smoke/iotrace-mq.log" 2>&1 || {
	echo "iotrace mq smoke failed:" >&2
	cat "$smoke/iotrace-mq.log" >&2
	exit 1
}
grep -q "^  mq " "$smoke/iotrace-mq.log" || {
	echo "iotrace mq residual row missing:" >&2
	cat "$smoke/iotrace-mq.log" >&2
	exit 1
}

# Fuzz smoke (not run here — fuzzing is open-ended and CI is budgeted; the
# seed corpora run as ordinary tests in the go test pass above). To shake the
# decoders locally:
#
#   go test ./internal/kv    -run '^$' -fuzz='^FuzzDec$'  -fuzztime=30s
#   go test ./internal/wal   -run '^$' -fuzz=FuzzReplay   -fuzztime=30s
#   go test ./internal/btree -run '^$' -fuzz=FuzzLeafPage -fuzztime=30s

# The crash-consistency, MVCC snapshot and log-shipping suites (the ship
# ring's oracle test among them) under the race detector, named explicitly
# so a future -short or skip in the full pass cannot silently drop them (the
# snapshot tests race concurrent pinned readers against the mutation bracket).
go test -race -run 'Crash|Fault|Replay|Durab|Recover|Torn|LogFull|NoSteal|Stats|Snapshot|MVCC|Ship' \
	./internal/wal ./internal/storage ./internal/engine

# The server package entire under the race detector: real TCP handlers, the
# batch scheduler, the group-commit writer, and the snapshot read path are
# the most goroutine-dense code in the repo, so it gets an explicit pass a
# future -short cannot drop.
go test -race ./internal/server

# The cluster package entire under the race detector: the router's failover
# path, the WAL shipper, and the kill-primary-mid-load acceptance test all
# race real goroutines over real TCP, so it too gets a named pass.
go test -race ./internal/cluster

# The multi-queue device and the lane scheduler under the race detector,
# named explicitly: the lane scheduler's per-lane launch/complete path and
# the E23 serving round are the queue-aware additions (the mqssd package
# itself is single-goroutine behind the engine, but its tests assert the
# degeneracy contract the lanes rely on).
go test -race ./internal/mqssd
go test -race -run 'Lane|Scheduler|Batch' ./internal/server

# The span tracer's and the IO trace's concurrency regressions, named
# explicitly for the same reason (the full -race pass below also covers the
# end-to-end residual tests).
go test -race -run 'TracerConcurrent|TraceConcurrentAdd' ./internal/obs ./internal/storage

# The cluster-observability chain under the race detector, named explicitly:
# the merged-trace test races a traced client against the primary's writer
# and the replica's shipper while asserting the cross-process span links;
# the interop and ext-decode tests pin the wire trace-context contract; and
# E24's sync round holds real acks on the shipper's pull position while the
# lag estimator and gate histogram are read from another goroutine.
go test -race -run 'MergedTraceSpans|Interop|Ext|TraceContext' \
	./internal/cluster ./internal/server ./internal/kv
go test -race -run 'E24ShipLag' ./internal/experiments

# The analyzer suite's own tests under the race detector, plus the iolint
# roster test, which re-runs the full suite over the repo (a regression if a
# new analyzer is written but never registered, or the tree stops being clean
# under its own gate).
go test -race ./internal/analysis/... ./cmd/iolint

go test -race -timeout 20m ./...
echo "all checks passed"

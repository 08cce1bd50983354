// Package mqssd implements the multi-queue refinement of the PDAM device:
// instead of one pool of P IO slots per time step, the device exposes N
// submission/completion queue pairs, each serving up to PerQueueP IOs per
// step, capped by the queue's depth and diluted by cross-queue interference
// when several queues are active in the same step (the multi-queue SSD
// modeling direction of arXiv 2507.06349; the slot arithmetic is core.MQ,
// so the device and the accountant's predictions share one formula — this
// device IS the model).
//
// It is the repo's one step-packing device: the paper's Definition 1 PDAM
// (internal/pdamdev) is its one-queue, full-depth, β = 0 case and is built
// as exactly that.
//
// Reads are striped across the read queues by block address (an FTL-style
// static mapping), so independent reads spread out and a key-range-affine
// scheduler can fill queues evenly. Writes optionally route to a dedicated
// extra queue pair: WAL group commits then never occupy read-queue slots,
// though they still exert cross-queue interference.
//
// Like every device model in the repo, it is driven entirely in virtual
// time (sim.Time) — no wall-clock reads (TestVirtualTimeScopeImportsNoClock
// enforces this).
package mqssd

import (
	"fmt"
	"math"

	"iomodels/internal/core"
	"iomodels/internal/sim"
	"iomodels/internal/storage"
)

// Config shapes the device. Zero values select defaults (see withDefaults).
type Config struct {
	Queues       int      // N read submission/completion queue pairs
	PerQueueP    int      // IOs one uncontended queue serves per step
	QueueDepth   int      // per-queue outstanding cap (0 = PerQueueP)
	Interference float64  // β: per extra active queue, service drops by 1+β·(a−1)
	WriteQueue   bool     // dedicate an extra queue pair to writes
	BlockBytes   int64    // B, the IO size
	StepTime     sim.Time // wall-clock length of one time step
}

// DefaultConfig is the E23 device profile: 4 read queues of 8 slots each
// (raw P = 32), but depth 4 and interference 1/8 cap the realizable
// parallelism at 8 IOs/step — a PDAM reading of the geometry overcommits it
// 4×. A dedicated write queue keeps group commits off the read queues.
func DefaultConfig() Config {
	return Config{
		Queues: 4, PerQueueP: 8, QueueDepth: 4, Interference: 0.125,
		WriteQueue: true, BlockBytes: 4 << 10, StepTime: sim.Millisecond,
	}
}

func (c Config) withDefaults() Config {
	if c.Queues == 0 {
		c.Queues = 4
	}
	if c.PerQueueP == 0 {
		c.PerQueueP = 8
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = c.PerQueueP
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 4 << 10
	}
	if c.StepTime == 0 {
		c.StepTime = sim.Millisecond
	}
	return c
}

// Model returns the read-queue geometry as the analytic core.MQ model the
// accountant predicts with (the device's own slot arithmetic).
func (c Config) Model() core.MQ {
	return core.MQ{
		Queues: c.Queues, PerQueueP: c.PerQueueP, QueueDepth: c.QueueDepth,
		Beta: c.Interference, BlockBytes: float64(c.BlockBytes),
		StepSeconds: c.StepTime.Seconds(),
	}
}

// pruneWindow is how many steps of bookkeeping the device keeps behind the
// newest submission (and how often the floor below them rises): devices run
// for millions of steps, and the ring of step records holds two windows, so
// traffic without a backlog never outgrows it.
const pruneWindow = 4096

// Device is the multi-queue device. It is driven at virtual-time
// granularity with service on step boundaries, and the engine serializes
// callers.
type Device struct {
	cfg   Config
	model core.MQ

	// The ring holds one record per step: step s files at record
	// i = s & (len(steps)−1), steps[i] is the step record i holds, and
	// counts[i·stride:(i+1)·stride] its count of active queues, then the
	// slots each queue used (read queues, +1 trailing write queue if
	// enabled). A record holding another step, or a step below the floor,
	// reads as empty.
	steps      []int64
	counts     []int32
	stride     int
	pruneBelow int64
	TotalIOs   int64
}

// New creates a multi-queue device from cfg (zero fields defaulted).
func New(cfg Config) *Device {
	cfg = cfg.withDefaults()
	if cfg.Queues < 1 || cfg.PerQueueP < 1 || cfg.QueueDepth < 1 ||
		cfg.Interference < 0 || cfg.BlockBytes <= 0 || cfg.StepTime <= 0 {
		panic("mqssd: invalid parameters")
	}
	n := cfg.Queues
	if cfg.WriteQueue {
		n++
	}
	d := &Device{cfg: cfg, model: cfg.Model(), stride: 1 + n}
	d.steps, d.counts = make([]int64, 2*pruneWindow), make([]int32, 2*pruneWindow*d.stride)
	d.reset()
	return d
}

// reset forgets all step bookkeeping in place (construction and Reboot).
func (d *Device) reset() {
	for i := range d.steps {
		d.steps[i] = math.MinInt64 // below every floor: empty
	}
	d.pruneBelow = 0
}

// record returns step s's counts — active queues, then the slots each
// queue used — or nil when the ring holds none for s.
func (d *Device) record(s int64) []int32 {
	i := int(s & int64(len(d.steps)-1))
	if d.steps[i] != s || s < d.floor() {
		return nil
	}
	return d.counts[i*d.stride : (i+1)*d.stride]
}

// claim returns step s's record for writing. A record below the floor is
// taken over and cleared; one that holds another live step — s lies a
// backlog past it — doubles the ring first, so no live step is dropped.
func (d *Device) claim(s int64) []int32 {
	for {
		if r := d.record(s); r != nil {
			return r
		}
		i := int(s & int64(len(d.steps)-1))
		if d.steps[i] < d.floor() {
			d.steps[i] = s
			r := d.counts[i*d.stride : (i+1)*d.stride]
			clear(r)
			return r
		}
		d.grow()
	}
}

// grow doubles the ring and re-files its live records.
func (d *Device) grow() {
	steps, counts, below := d.steps, d.counts, d.pruneBelow
	d.steps, d.counts = make([]int64, 2*len(steps)), make([]int32, 2*len(counts))
	d.reset()
	d.pruneBelow = below
	for i, s := range steps {
		if s >= d.floor() {
			copy(d.claim(s), counts[i*d.stride:(i+1)*d.stride])
		}
	}
}

// Config returns the device's (defaulted) configuration.
func (d *Device) Config() Config { return d.cfg }

// StepOf returns the index of the step containing virtual time t.
func (d *Device) StepOf(t sim.Time) int64 { return int64(t) / int64(d.cfg.StepTime) }

// EndOfStep returns the completion instant of step s.
func (d *Device) EndOfStep(s int64) sim.Time { return sim.Time(s+1) * d.cfg.StepTime }

// QueueFor routes an IO: writes to the dedicated write queue when one is
// configured, reads (and writes without one) striped across the read queues
// by block address.
func (d *Device) QueueFor(op storage.Op, off int64) int {
	if op == storage.Write && d.cfg.WriteQueue {
		return d.cfg.Queues // the trailing write queue
	}
	if d.cfg.Queues == 1 {
		return 0
	}
	block := off / d.cfg.BlockBytes
	if block < 0 {
		block = -block
	}
	return int(block % int64(d.cfg.Queues))
}

// freeAt returns the slots queue q can still take in step s. The queue's
// capacity depends on how many queues are active in s — including q itself
// once it joins — and can retroactively fall below what earlier joiners
// already packed (their schedule stands; free clamps at 0).
//
// Interference lingers one step: the census also counts queues active in
// s−1, because a controller that served several queues a step ago has not
// reconfigured yet. This keeps saturated service at Queues·QueueSlots(Queues)
// per step — the all-active closed form — instead of rewarding whichever
// queue packs a fresh step first with an uncontended slot count.
func (d *Device) freeAt(q int, s int64) int {
	var used, a int
	if r := d.record(s); r != nil {
		a, used = int(r[0]), int(r[1+q])
	}
	if used == 0 {
		a++ // q joining s would add one active queue
	}
	if r := d.record(s - 1); r != nil && int(r[0]) > a {
		a = int(r[0])
	}
	free := d.model.QueueSlots(a) - used
	if free < 0 {
		return 0
	}
	return free
}

// Submit schedules n block IOs on queue q at time now and returns the
// completion time of the last one: greedy packing into the earliest steps
// where the queue has free capacity, starting with the step containing now.
// Submitting zero blocks returns now.
func (d *Device) Submit(q int, now sim.Time, n int) sim.Time {
	if q < 0 || q >= d.stride-1 {
		panic(fmt.Sprintf("mqssd: queue %d out of range", q))
	}
	if n < 0 {
		panic("mqssd: negative IO count")
	}
	if n == 0 {
		return now
	}
	d.TotalIOs += int64(n)
	step := d.StepOf(now)
	if oldest := d.oldestExact(); step < oldest {
		step = oldest // a cursor from before the bookkeeping: see oldestExact
	}
	d.prune(step)
	var done sim.Time
	for n > 0 {
		free := d.freeAt(q, step)
		if free > 0 {
			r := d.claim(step)
			if r[1+q] == 0 {
				r[0]++
			}
			take := min(free, n)
			r[1+q] += int32(take)
			n -= take
			done = d.EndOfStep(step)
		}
		step++
	}
	return done
}

// SlotsFreeAt reports how many IO slots queue q has left in the step
// containing t.
func (d *Device) SlotsFreeAt(q int, t sim.Time) int { return d.freeAt(q, d.StepOf(t)) }

// oldestExact is the earliest step the device still schedules exactly: the
// floor keeps it and the step before it, which freeAt consults. A
// submission whose cursor is older — a serving connection that only hit
// cache, or sat idle, while others advanced the device by more than the
// window — is served from here: the steps behind read "empty" only because
// they were forgotten.
func (d *Device) oldestExact() int64 { return d.floor() + 1 }

// floor is the oldest step the ring still holds: a record below it reads as
// empty.
func (d *Device) floor() int64 { return d.pruneBelow - pruneWindow }

// prune forgets bookkeeping more than pruneWindow steps behind current, the
// step of the submission being scheduled, by raising the floor once a window:
// the records below it read as empty and are taken over as the ring wraps.
// The floor is one for every queue, whichever is submitting, so the ring
// holds the two windows between raises plus the queued backlog however the
// traffic is spread — an idle queue cannot pin the others' history. Keeping
// one window back (rather than forgetting up to current) leaves freeAt's
// look at step s−1, and any client whose cursor trails the newest by less
// than the window, exact; Submit moves an older cursor up to oldestExact.
func (d *Device) prune(current int64) {
	if current-d.pruneBelow >= pruneWindow {
		d.pruneBelow = current
	}
}

// Storage adapts the device to the storage.Device interface: an IO of any
// size costs ceil(size/B) block IOs on the queue its address (or op) routes
// to. It drops in anywhere ssd/hdd do — engine, FaultStore, server.
type Storage struct {
	dev      *Device
	capacity int64
}

// Storage wraps the device as a storage.Device with the given byte capacity.
func (d *Device) Storage(capacity int64) *Storage {
	if capacity <= 0 {
		panic("mqssd: invalid capacity")
	}
	return &Storage{dev: d, capacity: capacity}
}

// Access implements storage.Device.
func (s *Storage) Access(now sim.Time, op storage.Op, off, size int64) sim.Time {
	n := int((size + s.dev.cfg.BlockBytes - 1) / s.dev.cfg.BlockBytes)
	return s.dev.Submit(s.dev.QueueFor(op, off), now, n)
}

// Capacity implements storage.Device.
func (s *Storage) Capacity() int64 { return s.capacity }

// Name implements storage.Device.
func (s *Storage) Name() string {
	c := s.dev.cfg
	name := fmt.Sprintf("mq(Q=%d,Pq=%d,D=%d,beta=%g,B=%d", c.Queues, c.PerQueueP, c.QueueDepth, c.Interference, c.BlockBytes)
	if c.WriteQueue {
		name += ",wq"
	}
	return name + ")"
}

// Topology implements storage.Shaped. Queues × PerQueue is the read-queue
// layout for a lane scheduler: PerQueue is the per-queue outstanding target
// — the queue depth (capped by the slot count), not the
// interference-diluted per-step service; a scheduler keeps min(D, Pq) IOs in
// flight per queue to cover its service each step. Parallelism is the
// realizable IOs per step with every read queue active — the honest size
// for one global batch (the raw Queues·PerQueueP would overcommit it);
// Parallelism ≤ Queues × PerQueue ≤ the raw slot count.
func (s *Storage) Topology() storage.Topology {
	c := s.dev.cfg
	per := c.QueueDepth
	if c.PerQueueP < per {
		per = c.PerQueueP
	}
	return storage.Topology{Queues: c.Queues, PerQueue: per, Parallelism: s.dev.model.EffectiveParallelism()}
}

// Params exposes the exact device configuration; the observability layer's
// accountant reads it instead of fitting (obs.ExactMQ) — this device IS the
// multi-queue model.
func (s *Storage) Params() Config { return s.dev.cfg }

// Device returns the underlying queue-level device.
func (s *Storage) Device() *Device { return s.dev }

// Reboot implements storage.Rebooter: a power cycle forgets all in-flight
// queue state (the FaultStore's crash path calls this).
func (s *Storage) Reboot() { s.dev.reset() }

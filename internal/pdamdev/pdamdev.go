// Package pdamdev is the abstract PDAM device of the paper's Definition 1:
// in each time step the device serves up to P IOs, each of size B; unused
// slots in a step are wasted; performance is measured in time steps. The §8
// experiment (Lemma 13) runs concurrent query clients against this device.
//
// Definition 1 is the one-queue, full-depth, interference-free case of the
// multi-queue stepper (internal/mqssd), so this package is a constructor
// over that stepper plus the PDAM's own names — it holds no step
// bookkeeping of its own.
//
// Unlike internal/ssd — a mechanistic simulator used to *validate* the PDAM —
// this device *is* the model, used to explore algorithm design within it.
package pdamdev

import (
	"fmt"

	"iomodels/internal/mqssd"
	"iomodels/internal/sim"
)

// Device is a PDAM storage device. It is driven at virtual time granularity
// but all service happens on step boundaries. Safe for use by many sim
// processes (the engine serializes them).
type Device struct {
	P          int      // IOs served per time step
	BlockBytes int64    // B, the IO size
	StepTime   sim.Time // wall-clock length of one time step

	mq *mqssd.Device // one queue of P slots, depth P
}

// New creates a PDAM device serving p IOs of blockBytes per step of
// stepTime.
func New(p int, blockBytes int64, stepTime sim.Time) *Device {
	if p <= 0 || blockBytes <= 0 || stepTime <= 0 {
		panic("pdamdev: invalid parameters")
	}
	return &Device{P: p, BlockBytes: blockBytes, StepTime: stepTime, mq: mqssd.New(mqssd.Config{
		Queues: 1, PerQueueP: p, QueueDepth: p, BlockBytes: blockBytes, StepTime: stepTime,
	})}
}

// StepOf returns the index of the step containing virtual time t.
func (d *Device) StepOf(t sim.Time) int64 { return d.mq.StepOf(t) }

// EndOfStep returns the completion instant of step s (IOs served in step s
// are available at its end).
func (d *Device) EndOfStep(s int64) sim.Time { return d.mq.EndOfStep(s) }

// Submit schedules n block IOs issued at time now and returns the completion
// time of the last one. IOs are packed greedily into the earliest steps with
// free slots, starting with the step containing now. Submitting zero blocks
// returns now.
func (d *Device) Submit(now sim.Time, n int) sim.Time { return d.mq.Submit(0, now, n) }

// SlotsFreeAt reports how many IO slots remain in the step containing t.
func (d *Device) SlotsFreeAt(t sim.Time) int { return d.mq.SlotsFreeAt(0, t) }

// Storage adapts the PDAM device to the storage.Device interface so the
// real dictionaries (B-tree, Bε-tree, ...) can run on the abstract model
// through the engine layer: an IO of any size costs ceil(size/B) block
// IOs, packed into the earliest time steps with free slots. Reads and
// writes are symmetric, as in Definition 1. Everything but the name is the
// stepper's own adapter: Access, Capacity, Topology (1 × P), Params, Reboot.
type Storage struct {
	*mqssd.Storage
}

// Storage wraps the device as a storage.Device with the given byte
// capacity.
func (d *Device) Storage(capacity int64) *Storage {
	if capacity <= 0 {
		panic("pdamdev: invalid capacity")
	}
	return &Storage{d.mq.Storage(capacity)}
}

// Name implements storage.Device.
func (s *Storage) Name() string {
	c := s.Params()
	return fmt.Sprintf("pdam(P=%d,B=%d)", c.PerQueueP, c.BlockBytes)
}

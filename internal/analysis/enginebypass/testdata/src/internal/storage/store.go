// Package storage models the IO layer: a store with byte IO, a raw device
// timing call, and a metering probe.
package storage

// Store models storage.Store.
type Store struct{ data []byte }

// ReadAt models byte-moving IO.
func (s *Store) ReadAt(p []byte, off int64) {}

// WriteAt models byte-moving IO.
func (s *Store) WriteAt(p []byte, off int64) {}

// Meter models the sanctioned timing-only probe.
func (s *Store) Meter(off, size int64) int64 { return size }

// Device models the raw timing interface.
type Device interface {
	Access(now, off, size int64) int64
}

// Disk is a concrete Device.
type Disk struct{}

// Access implements Device.
func (Disk) Access(now, off, size int64) int64 { return now + size }

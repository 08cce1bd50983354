// Package btree models a tree reaching around the engine to the raw IO
// layer: every byte-moving or raw-timing call is a layering violation; the
// metering probe is sanctioned.
package btree

import "internal/storage"

// Lookup hits the store and the device directly.
func Lookup(s *storage.Store, d storage.Device, raw storage.Disk) int64 {
	buf := make([]byte, 8)
	s.ReadAt(buf, 0)            // want `direct device IO storage.Store.ReadAt bypasses the engine layer`
	s.WriteAt(buf, 8)           // want `direct device IO storage.Store.WriteAt bypasses the engine layer`
	t := d.Access(0, 0, 8)      // want `direct device IO storage.Device.Access bypasses the engine layer`
	t += raw.Access(t, 8, 8)    // want `direct device IO storage.Disk.Access bypasses the engine layer`
	return t + s.Meter(0, 4096) // Meter moves no bytes; sanctioned
}

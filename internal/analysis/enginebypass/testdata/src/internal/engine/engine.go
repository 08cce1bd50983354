// Package engine models the engine layer: it is on the allow list, so raw
// IO is its job.
package engine

import "internal/storage"

// Fill pages bytes through the raw layer.
func Fill(s *storage.Store, d storage.Device) int64 {
	buf := make([]byte, 8)
	s.ReadAt(buf, 0)
	s.WriteAt(buf, 8)
	return d.Access(0, 0, 8)
}

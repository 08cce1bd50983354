// Package walx is off the durability path: its import path extends
// internal/wal's but does not end in it.
package walx

// Append may panic on misuse.
func Append(full bool) {
	if full {
		panic("log full")
	}
}

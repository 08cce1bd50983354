// Package engine models the durable-IO entry points the analyzer watches.
package engine

// Engine is the storage engine.
type Engine struct{}

// Sync flushes the group commit to the device.
func (e *Engine) Sync() error { return nil }

// Package engine models the engine's durable-write API.
package engine

// Engine is the storage engine.
type Engine struct{}

// Sync flushes the group commit.
func (e *Engine) Sync() error { return nil }

// Flush writes back dirty pages; it is not a durability entry point.
func (e *Engine) Flush() error { return nil }

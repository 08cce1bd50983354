// Package server models the wire client (client.go) and calls the
// durable-write API in every way of discarding its errors.
package server

import (
	"internal/engine"
	"internal/wal"
)

// Discards exercises every discard shape the analyzer catches.
func Discards(l *wal.Log, e *engine.Engine) {
	l.Commit()              // want `error from Commit discarded`
	_ = e.Sync()            // want `error from Sync assigned to _`
	seq, _ := l.Append(nil) // want `error from Append assigned to _`
	_ = seq
	go e.Sync()    // want `error from Sync unobservable in go statement`
	defer e.Sync() // want `error from Sync unobservable in defer`
}

// Handled shows the contract being honored.
func Handled(l *wal.Log, e *engine.Engine) error {
	if _, err := l.Append(nil); err != nil {
		return err
	}
	if err := l.Commit(); err != nil {
		return err
	}
	return e.Sync()
}

// Shutdown documents a deliberate discard.
func Shutdown(e *engine.Engine) {
	//lint:allowdiscard process exiting; the sticky error has already been reported
	_ = e.Sync()
}

// BadDirective has the hatch without a reason.
func BadDirective(e *engine.Engine) {
	//lint:allowdiscard
	_ = e.Sync() // want `//lint:allowdiscard needs a reason`
}

// Untracked calls something outside the watched list; no diagnostics.
func Untracked(e *engine.Engine) {
	_ = e.Flush()
}

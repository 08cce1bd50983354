package server

import "time"

// observe models the rest of the package: latency histograms are wall-clock
// by design, and only scheduler.go is scoped.
func observe() int64 {
	return time.Now().UnixNano()
}

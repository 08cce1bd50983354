// Package server models the real internal/server package's import path. One
// file of it, scheduler.go, is in the virtualtime analyzer's DEFAULT scope:
// the read scheduler is a function of the cursors it is handed, and a timer
// or a wall-clock read in it is flagged with no extra configuration.
package server

import "time"

// admit launches a read from a wall-clock timer.
func admit(launch func()) {
	time.AfterFunc(200*time.Microsecond, launch) // want `wall-clock time.AfterFunc in simulation/model code`
}

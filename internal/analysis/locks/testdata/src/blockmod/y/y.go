// Package y dials: the root cause of package x's blocking.
package y

import "net"

// G dials, which blocks.
func G() { net.Dial("tcp", "localhost:0") }

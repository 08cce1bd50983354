// Package x blocks only through the packages it calls. Its summaries fold
// y's cause, since x and y are one module (blockmod), but not blockdep's,
// which is another module's and stands in for the standard library.
package x

import (
	"blockdep"
	"blockmod/y"
)

// F blocks only through y.G.
func F() { y.G() }

// H blocks only through another module's blockdep.Pool.Drain.
func H(p *blockdep.Pool) int { return p.Drain() }

// Package wal models a durability-path package: every panic must either
// become an error or carry a reasoned //lint:allowpanic directive.
package wal

import "errors"

// Append models a durability entry point.
func Append(full bool) error {
	if full {
		panic("log full") // want `panic on the durability path`
	}
	return nil
}

// Commit degrades correctly.
func Commit(broken bool) error {
	if broken {
		return errors.New("commit failed")
	}
	return nil
}

// Seal panics with a directive but no reason: the escape hatch must not be
// silent.
func Seal() {
	//lint:allowpanic
	panic("sealed") // want `//lint:allowpanic needs a reason`
}

// Torn panics with the directive on the same line.
func Torn() {
	panic("torn frame") //lint:allowpanic simulated media corruption, recovered by Replay
}

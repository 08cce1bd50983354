// iolint is the repo's static-analysis gate: the four custom analyzers that
// encode the IO-model, durability and concurrency invariants no type or test
// holds (see DESIGN.md §7), in one command (the stock passes run in go vet):
//
//	go run ./cmd/iolint ./...
//
// The binary is a standard go/analysis unitchecker, so the heavy lifting —
// package loading, export data, fact propagation between packages — is done
// by the go command itself: when invoked with package patterns, iolint
// re-executes as `go vet -vettool=<itself> <patterns>`; when the go command
// then calls it back with a *.cfg file (or -flags/-V=full during probing),
// it runs the unitchecker protocol.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/unitchecker"

	"iomodels/internal/analysis/enginebypass"
	"iomodels/internal/analysis/errcontract"
	"iomodels/internal/analysis/locks"
	"iomodels/internal/analysis/nopanic"
)

// suite is the analyzer set, in the order `iolint help` lists it.
var suite = []*analysis.Analyzer{
	nopanic.Analyzer,
	enginebypass.Analyzer,
	// Durable-write and wire-client errors handled, never dropped.
	errcontract.Analyzer,
	// Concurrency invariants: canonical lock order, no blocking under an
	// exclusive lock.
	locks.Analyzer,
}

func main() {
	// The go command drives the unitchecker protocol with exactly one of:
	// a unit.cfg file, -flags, or -V=full. Everything else — package
	// patterns typed by a human — means "run me over these packages", which
	// we delegate to `go vet -vettool`.
	protocol := len(os.Args) <= 1
	for _, a := range os.Args[1:] {
		if strings.HasSuffix(a, ".cfg") || a == "help" || a == "-flags" ||
			a == "-V=full" || a == "-V" {
			protocol = true
		}
	}
	if !protocol {
		os.Exit(delegate(os.Args[1:]))
	}
	unitchecker.Main(suite...)
}

// delegate re-invokes iolint through `go vet -vettool` so the go command
// loads the packages, and returns the exit code to propagate.
func delegate(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "iolint: cannot locate own binary: %v\n", err)
		return 1
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, args...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "iolint: %v\n", err)
		return 1
	}
	return 0
}

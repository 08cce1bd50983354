// Command repro lists, runs and checks the experiment registry
// (internal/experiments/registry.go): each row is one harness run that
// renders one or more of EXPERIMENTS.md's tables.
//
// Usage:
//
//	repro                        # list the rows
//	repro [-small] E7 E20 ...    # run the rows that render these tables
//	repro [-small] -all          # run every row
//	repro [-small] -check FILE   # re-render every deterministic row; fail on drift
//
// -small runs at the reduced scale tier-1 renders. -check fails, naming the
// row, wherever a generated block of FILE differs from what the row prints
// now: EXPERIMENTS.md holds the full-scale tables, and
// internal/experiments/testdata/small.md the -small ones.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"iomodels/internal/experiments"
)

func main() {
	all := flag.Bool("all", false, "run every row")
	small := flag.Bool("small", false, "run at the reduced scale tier-1 renders")
	check := flag.String("check", "", "re-render every deterministic row and compare it with its block in `FILE`")
	flag.Parse()

	rows := experiments.Registry
	switch {
	case *check != "":
		doc, err := os.ReadFile(*check)
		if err == nil {
			err = experiments.Check(string(doc), rows, *small, os.Stderr)
		}
		exitOn(err)
		return
	case flag.NArg() > 0:
		rows = nil
		for _, id := range flag.Args() {
			r, ok := experiments.Lookup(id)
			if !ok {
				exitOn(fmt.Errorf("no row renders %q; run repro with no arguments for the list", id))
			}
			rows = append(rows, r)
		}
	case !*all:
		for _, r := range rows {
			kind := "virtual"
			if !r.Deterministic {
				kind = "wall"
			}
			fmt.Printf("%-12s %-8s %-32s %s\n", r.ID, kind, r.Name, strings.Join(r.Tables, " "))
		}
		return
	}
	for _, r := range rows {
		out, err := r.Run(*small)
		exitOn(err)
		fmt.Println(out)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

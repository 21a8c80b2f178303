// Command craqr-experiments runs the reproduction's experiment suite
// (DESIGN.md section 9: E1–E11, E13–E15) and prints one table per experiment — the
// harness that regenerates every figure-equivalent artifact of the paper.
//
// Usage:
//
//	craqr-experiments [-quick] [-seed N] [-only E3,E7]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced trial counts")
	seed := flag.Int64("seed", 1, "random seed")
	only := flag.String("only", "", "comma-separated experiment ids to run (e.g. E3,E7); empty runs all")
	flag.Parse()

	wanted := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	opts := experiments.Options{Seed: *seed, Quick: *quick}
	start := time.Now()
	ran := 0
	for _, exp := range experiments.All() {
		if len(wanted) > 0 && !wanted[exp.ID] {
			continue
		}
		expStart := time.Now()
		tab, err := exp.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", exp.ID, err)
			os.Exit(1)
		}
		fmt.Println(tab.String())
		fmt.Printf("  (%s in %v)\n\n", exp.ID, time.Since(expStart).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiments matched -only=%s\n", *only)
		os.Exit(1)
	}
	fmt.Printf("ran %d experiments in %v (seed %d, quick=%v)\n", ran, time.Since(start).Round(time.Millisecond), *seed, *quick)
}

// Command craqr-plan prices a CrAQL query against a grid before submission —
// the Section VI query-optimization extension as a tool. It prints the cost
// estimate of the one execution topology the engine builds (per-cell T taps,
// a P per partial cell, one n-ary U-operator): the table every EXPLAIN
// surface serves.
//
// Usage:
//
//	craqr-plan -grid 256 -region 0,0,32,32 -epoch 1 'ACQUIRE rain FROM RECT(0,0,16,2) RATE 5'
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/craql"
	"repro/internal/geom"
	"repro/internal/planner"
)

func main() {
	gridCells := flag.Int("grid", 256, "grid cells h (perfect square)")
	regionSpec := flag.String("region", "0,0,32,32", "region as x0,y0,x1,y1")
	epoch := flag.Float64("epoch", 1, "epoch length (time units)")
	perTuple := flag.Float64("w-tuple", planner.DefaultWeights().PerTuple, "cost weight per tuple-hop")
	perOp := flag.Float64("w-op", planner.DefaultWeights().PerOperator, "cost weight per operator")
	perDepth := flag.Float64("w-depth", planner.DefaultWeights().PerDepth, "cost weight per merge-depth level")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: craqr-plan [flags] 'ACQUIRE attr FROM RECT(...) RATE r'")
		os.Exit(2)
	}
	region, err := parseRegion(*regionSpec)
	if err != nil {
		fatal(err)
	}
	grid, err := geom.NewGrid(region, *gridCells)
	if err != nil {
		fatal(err)
	}
	// Accept both the plain query form and the EXPLAIN wrapper — the tool is
	// an EXPLAIN either way.
	st, err := craql.ParseStatement(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	q := st.Query
	weights := planner.Weights{PerTuple: *perTuple, PerOperator: *perOp, PerDepth: *perDepth}
	ex, err := planner.Explain(grid, q, *epoch, weights)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("query: %s\n", craql.Format(q))
	fmt.Printf("grid:  h=%d over %v (cell area %g)\n", grid.NumCells(), grid.Region(), grid.CellArea())
	fmt.Printf("cells overlapped: %d\n\n", len(grid.Overlapping(q.Region)))
	// The same canonical table the CrAQL EXPLAIN statement and the HTTP plan
	// endpoint serve.
	fmt.Print(ex.Table())
}

func parseRegion(spec string) (geom.Rect, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 4 {
		return geom.Rect{}, fmt.Errorf("craqr-plan: region must be x0,y0,x1,y1, got %q", spec)
	}
	var vals [4]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return geom.Rect{}, fmt.Errorf("craqr-plan: bad region coordinate %q", p)
		}
		vals[i] = v
	}
	return geom.NewRect(vals[0], vals[1], vals[2], vals[3]), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "craqr-plan:", err)
	os.Exit(1)
}

// Package experiments implements the reproduction's experiment suite. The
// paper has no quantitative evaluation section, so each experiment tests one
// of its quantitative prose claims (operator expected behaviour, topology
// construction rules, budget tuning, multi-query sharing) or ablates one of
// the Section VI extensions. DESIGN.md section 9 is the index; EXPERIMENTS.md
// records outcomes. Each experiment produces a Table that the
// craqr-experiments binary prints.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's result: a titled grid of rows plus free-form
// notes (e.g. rendered topologies).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row formatting each value with %v-style verbs chosen by
// the caller via fmt.Sprintf inputs.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Options tunes experiment runs.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// Quick reduces trial counts for fast CI runs.
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// trials picks a trial count honoring Quick mode.
func (o Options) trials(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Experiment is a runnable entry of the suite.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Table, error)
}

// All returns the full suite in index order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Fig. 2 topology construction", E1Fig2},
		{"E2", "Thin operator expected rate", E2Thin},
		{"E3", "Flatten homogenization quality", E3FlattenHomogenize},
		{"E4", "Flatten rate violations vs requested rate", E4FlattenViolations},
		{"E5", "Partition/Union rate preservation", E5PartitionUnion},
		{"E6", "Budget tuning convergence", E6BudgetTuning},
		{"E7", "Shared topology vs naive per-query processing", E7SharedVsNaive},
		{"E8", "End-to-end fabrication throughput", E8Throughput},
		{"E9", "MLE vs SGD estimation accuracy", E9Estimation},
		{"E10", "Query insert/delete churn", E10QueryChurn},
		{"E11", "Incentive allocation (Section VI)", E11Incentives},
		{"E13", "T-chain sharing vs independent thinning (Section VI)", E13TChainOrder},
		{"E14", "GPS error vs query accuracy (Section VI)", E14GPSError},
		{"E15", "Inference bias: raw vs fabricated streams", E15InferenceBias},
	}
}

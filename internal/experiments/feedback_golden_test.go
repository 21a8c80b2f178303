package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestFeedbackLoopsGolden holds the two feedback-loop experiments — E6's
// budget tuning and E11's incentive allocation, quick mode, seed 1 — to the
// tables recorded in testdata/feedback_e6_e11.golden, figure for figure as
// printed. Both runs are deterministic, so any drift in how the
// F-operators' N_v reports reach the budget controller or the incentive
// allocator shows here, not only a threshold crossing.
func TestFeedbackLoopsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/feedback_e6_e11.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, run := range []func(Options) (*Table, error){E6BudgetTuning, E11Incentives} {
		tab, err := run(quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString(tab.String())
	}
	if got.String() != string(want) {
		t.Errorf("E6/E11 tables differ from testdata/feedback_e6_e11.golden; got:\n%s", got.String())
	}
}

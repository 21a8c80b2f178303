package experiments

import (
	"os"
	"testing"
)

// operatorGoldens are the experiments whose tables are pinned figure for
// figure, quick mode and seed 1, each to testdata/<id>.golden: the
// operator experiments E1–E5 and the Section VI ones E13–E15. All of them
// are deterministic, so a change to how F, T, P or U draw, clip or merge
// shows here, not only a claim crossing its threshold.
var operatorGoldens = []struct {
	id  string
	run func(Options) (*Table, error)
}{
	{"e1", E1Fig2},
	{"e2", E2Thin},
	{"e3", E3FlattenHomogenize},
	{"e4", E4FlattenViolations},
	{"e5", E5PartitionUnion},
	{"e13", E13TChainOrder},
	{"e14", E14GPSError},
	{"e15", E15InferenceBias},
}

func TestOperatorExperimentsGolden(t *testing.T) {
	for _, g := range operatorGoldens {
		t.Run(g.id, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + g.id + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			tab, err := g.run(quickOpts())
			if err != nil {
				t.Fatal(err)
			}
			if got := tab.String(); got != string(want) {
				t.Errorf("table differs from testdata/%s.golden; got:\n%s", g.id, got)
			}
		})
	}
}

// TestOperatorExperimentsDeterministic runs each pinned experiment twice:
// a golden is only worth holding if the same options give the same table.
func TestOperatorExperimentsDeterministic(t *testing.T) {
	for _, g := range operatorGoldens {
		a, err := g.run(quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		b, err := g.run(quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		if as, bs := a.String(), b.String(); as != bs {
			t.Errorf("%s: two runs differ:\n%s\n%s", g.id, as, bs)
		}
	}
}

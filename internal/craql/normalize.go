package craql

import (
	"repro/internal/geom"
	"repro/internal/query"
)

// Normalization maps every CrAQL query onto a canonical normal form so that
// textually different statements describing the same acquisition — swapped
// rectangle corners, negative zeros, a stale ID on a stored query — share
// one representation. The canonical *key* (CanonicalKey) is the CrAQL text
// of the normal form; the topology layer's shared-subplan map is keyed by
// it, so "equal normal forms ⇒ one fabricated subplan" (see DESIGN.md,
// "Multi-query sharing").
//
// Properties (FuzzCRAQLNormalize enforces them):
//   - total: every statement that parses normalizes without error;
//   - idempotent: NormalizeQuery(NormalizeQuery(q)) == NormalizeQuery(q);
//   - round-trip stable: the normal form survives Format → Parse intact,
//     so the key really is a faithful encoding (Go's %g prints the
//     shortest decimal that re-parses to the same float64).

// NormalizeQuery returns q's canonical normal form: the region re-ordered
// so Min ≤ Max on both axes, negative zeros folded to positive zero, and
// the ID cleared (identity is assigned at registry insertion and is not
// part of what the query acquires).
func NormalizeQuery(q query.Query) query.Query {
	q.ID = ""
	q.Region = geom.NewRect(
		posZero(q.Region.MinX), posZero(q.Region.MinY),
		posZero(q.Region.MaxX), posZero(q.Region.MaxY),
	)
	q.Rate = posZero(q.Rate)
	return q
}

// posZero folds -0 to +0 so the two bit patterns of zero — numerically
// equal everywhere, textually distinct under %g — share one normal form.
func posZero(v float64) float64 {
	if v == 0 {
		return 0
	}
	return v
}

// CanonicalKey renders q's normal form as CrAQL text — the key of the
// fabricator's shared-subplan map. Two queries have equal keys iff their
// normal forms are identical (attribute, region and rate), because %g is
// injective on float64.
func CanonicalKey(q query.Query) string {
	return Format(NormalizeQuery(q))
}

// Package stream provides the stream-processing substrate of CrAQR: the
// crowdsensed tuple model, batches and their deterministic (T, ID) order
// (CompareTuples), the push-based operator interface that PMAT operators
// implement, sinks, the bounded result stores, and operator-graph
// plumbing. The design mirrors classical stream engines
// (Aurora/TelegraphCQ/CQL) in miniature: operators are connected into a DAG
// and batches of tuples are pushed from sources towards sinks.
package stream

import (
	"fmt"

	"repro/internal/geom"
)

// Tuple is one crowdsensed observation of an attribute A⟨j⟩, the paper's
// (t⟨j⟩, x⟨j⟩, y⟨j⟩, a⟨j⟩) with a unique identifier across sensors.
type Tuple struct {
	ID     uint64  // unique tuple identifier across sensors
	Attr   string  // attribute name, e.g. "rain" or "temp"
	T      float64 // observation time
	X, Y   float64 // observation location
	Value  float64 // attribute value (booleans encoded as 0/1)
	Sensor int     // originating mobile sensor id (-1 when synthetic)
}

// String renders the tuple compactly.
func (tp Tuple) String() string {
	return fmt.Sprintf("%s#%d(t=%.3f x=%.3f y=%.3f v=%.3f)", tp.Attr, tp.ID, tp.T, tp.X, tp.Y, tp.Value)
}

// Batch is a group of same-attribute tuples observed over a spatio-temporal
// window. PMAT operators are batch-at-a-time, matching the paper's "given a
// batch of size n" formulation of Flatten; windows carry the volume needed
// to convert user-facing rates into per-batch expectations.
type Batch struct {
	Attr   string
	Window geom.Window
	Tuples []Tuple
}

// Len returns the number of tuples in the batch.
func (b Batch) Len() int { return len(b.Tuples) }

// MeasuredRate returns the batch's empirical spatio-temporal rate
// (tuples per unit area per unit time).
func (b Batch) MeasuredRate() float64 {
	vol := b.Window.Volume()
	if vol <= 0 {
		return 0
	}
	return float64(len(b.Tuples)) / vol
}

package geom

import (
	"errors"
	"fmt"
)

// Window is a spatio-temporal box [T0, T1) × Rect — the 3-D region over
// which point processes are simulated, integrated and measured. It is the
// "n-dimensional window" of the paper's MDPP definition for n = 3.
type Window struct {
	T0, T1 float64
	Rect   Rect
}

// NewWindow constructs a window, normalizing time order.
func NewWindow(t0, t1 float64, r Rect) Window {
	if t0 > t1 {
		t0, t1 = t1, t0
	}
	return Window{T0: t0, T1: t1, Rect: r}
}

// String renders the window as "[t0,t1)×rect".
func (w Window) String() string {
	return fmt.Sprintf("[%g,%g)x%v", w.T0, w.T1, w.Rect)
}

// Duration returns the temporal extent.
func (w Window) Duration() float64 { return w.T1 - w.T0 }

// Volume returns the spatio-temporal volume duration × area. Expected counts
// of a homogeneous MDPP are rate × Volume.
func (w Window) Volume() float64 { return w.Duration() * w.Rect.Area() }

// IsEmpty reports whether the window has zero volume.
func (w Window) IsEmpty() bool { return w.Duration() <= 0 || w.Rect.IsEmpty() }

// WithRect returns a copy of the window restricted to the given rectangle.
func (w Window) WithRect(r Rect) Window { return Window{T0: w.T0, T1: w.T1, Rect: r} }

// Validate returns an error describing why the window is unusable, or nil.
func (w Window) Validate() error {
	if w.IsEmpty() {
		return errors.New("geom: empty window")
	}
	return nil
}

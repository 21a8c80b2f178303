package geom

import "repro/internal/codec"

// EncodeRect appends r's four bounds to w.
func EncodeRect(w *codec.Writer, r Rect) {
	w.Float64(r.MinX)
	w.Float64(r.MinY)
	w.Float64(r.MaxX)
	w.Float64(r.MaxY)
}

// DecodeRect reads what EncodeRect wrote.
func DecodeRect(r *codec.Reader) Rect {
	return Rect{MinX: r.Float64(), MinY: r.Float64(), MaxX: r.Float64(), MaxY: r.Float64()}
}

// EncodePoint appends p to w.
func EncodePoint(w *codec.Writer, p Point) {
	w.Float64(p.X)
	w.Float64(p.Y)
}

// DecodePoint reads what EncodePoint wrote.
func DecodePoint(r *codec.Reader) Point { return Point{X: r.Float64(), Y: r.Float64()} }

// EncodeWindow appends win's span and rectangle to w.
func EncodeWindow(w *codec.Writer, win Window) {
	w.Float64(win.T0)
	w.Float64(win.T1)
	EncodeRect(w, win.Rect)
}

// DecodeWindow reads what EncodeWindow wrote.
func DecodeWindow(r *codec.Reader) Window {
	return Window{T0: r.Float64(), T1: r.Float64(), Rect: DecodeRect(r)}
}

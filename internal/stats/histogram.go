package stats

import "errors"

// Grid2D accumulates counts over an nx × ny grid covering
// [loX, hiX) × [loY, hiY). It supports the spatial uniformity tests used to
// validate the Flatten operator.
type Grid2D struct {
	LoX, HiX, LoY, HiY float64
	NX, NY             int
	Counts             []int // row-major: Counts[iy*NX+ix]
	Outside            int
}

// NewGrid2D creates a 2-D counting grid.
func NewGrid2D(loX, hiX, loY, hiY float64, nx, ny int) (*Grid2D, error) {
	if nx <= 0 || ny <= 0 {
		return nil, errors.New("stats: NewGrid2D requires positive dimensions")
	}
	if hiX <= loX || hiY <= loY {
		return nil, errors.New("stats: NewGrid2D requires a non-empty extent")
	}
	return &Grid2D{LoX: loX, HiX: hiX, LoY: loY, HiY: hiY, NX: nx, NY: ny, Counts: make([]int, nx*ny)}, nil
}

// Add records an observation at (x, y).
func (g *Grid2D) Add(x, y float64) {
	if x < g.LoX || x >= g.HiX || y < g.LoY || y >= g.HiY {
		g.Outside++
		return
	}
	ix := int(float64(g.NX) * (x - g.LoX) / (g.HiX - g.LoX))
	iy := int(float64(g.NY) * (y - g.LoY) / (g.HiY - g.LoY))
	if ix >= g.NX {
		ix = g.NX - 1
	}
	if iy >= g.NY {
		iy = g.NY - 1
	}
	g.Counts[iy*g.NX+ix]++
}

// N returns the number of in-range observations.
func (g *Grid2D) N() int {
	n := 0
	for _, c := range g.Counts {
		n += c
	}
	return n
}

// UniformityPValue runs a chi-square test of spatial uniformity over the
// grid cells.
func (g *Grid2D) UniformityPValue() (float64, error) {
	res, err := ChiSquareUniform(g.Counts)
	if err != nil {
		return 0, err
	}
	return res.PValue, nil
}

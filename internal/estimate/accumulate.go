package estimate

// useKernel selects the packed kernel for accumulate. It is set once, from
// what the CPU reports, and changed by nothing but this package's tests.
var useKernel = haveKernel()

// accumulate adds to g and h the sums of the points in rows at the reciprocal
// rates in rates (len(rows)): g += r_i·f_i and h += r_i²·f_i f_iᵀ (upper
// triangle by rows) for f_i = rows[i] = (1, u, v, w). Each of the fourteen
// sums receives its terms in index order, and each term is the product the
// Go loop forms — u·(u·r²), not (u·u)·r² — whichever implementation runs, so
// the sums are the same bits on every CPU.
func accumulate(g *[4]float64, h *[10]float64, rows [][4]float64, rates []float64) {
	if useKernel {
		accumulateKernel(g, h, rows, rates)
		return
	}
	accumulateGo(g, h, rows, rates)
}

// accumulateGo is accumulate in Go: what runs where the kernel cannot, and
// the reference the kernel is tested against.
func accumulateGo(g *[4]float64, h *[10]float64, rows [][4]float64, rates []float64) {
	g0, g1, g2, g3 := g[0], g[1], g[2], g[3]
	h00, h01, h02, h03 := h[0], h[1], h[2], h[3]
	h11, h12, h13, h22, h23, h33 := h[4], h[5], h[6], h[7], h[8], h[9]
	rates = rates[:len(rows)]
	for i := range rows {
		u, v, w := rows[i][1], rows[i][2], rows[i][3]
		r := rates[i]
		q := r * r
		uq, vq, wq := u*q, v*q, w*q
		g0 += r
		g1 += u * r
		g2 += v * r
		g3 += w * r
		h00 += q
		h01 += uq
		h02 += vq
		h03 += wq
		h11 += u * uq
		h12 += u * vq
		h13 += u * wq
		h22 += v * vq
		h23 += v * wq
		h33 += w * wq
	}
	*g = [4]float64{g0, g1, g2, g3}
	*h = [10]float64{h00, h01, h02, h03, h11, h12, h13, h22, h23, h33}
}

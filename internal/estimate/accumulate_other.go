//go:build !amd64

package estimate

// haveKernel reports whether accumulateKernel has a packed implementation on
// this CPU: on this architecture it has none.
func haveKernel() bool { return false }

// accumulateKernel is accumulateGo: the packed kernel is amd64 assembly.
func accumulateKernel(g *[4]float64, h *[10]float64, rows [][4]float64, rates []float64) {
	accumulateGo(g, h, rows, rates)
}

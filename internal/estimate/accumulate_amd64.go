package estimate

// haveKernel reports whether the CPU runs AVX2 and the operating system
// saves the YMM registers across context switches: CPUID leaf 1 must report
// OSXSAVE and AVX, XGETBV the XMM and YMM state enabled, and CPUID leaf 7
// AVX2.
func haveKernel() bool {
	const (
		osxsave = 1 << 27 // leaf 1, ECX
		avx     = 1 << 28 // leaf 1, ECX
		avx2    = 1 << 5  // leaf 7, EBX
		ymmSave = 1<<1 | 1<<2
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmSave != ymmSave {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)

// accumulateKernel is accumulate on AVX2 (accumulate_amd64.s): the running
// sums packed four to a register, one point per iteration, added in the Go
// loop's order with the Go loop's products — no fused multiply-add.
//
//go:noescape
func accumulateKernel(grad *[4]float64, hess *[10]float64, rows [][4]float64, rates []float64)

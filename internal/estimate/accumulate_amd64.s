#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func accumulateKernel(grad *[4]float64, hess *[10]float64, rows [][4]float64, rates []float64)
//
// Registers hold the sums as hess stores them after grad:
//
//	Y0 = [g0 g1 g2 g3]      += r·[1 u v w]
//	Y1 = [h00 h01 h02 h03]  += Q = q·[1 u v w], q = r·r
//	Y2 = [h11 h12 h13 h22]  += [u u u v]·[uq vq wq vq]
//	X3 = [h23 h33]          += [v w]·[wq wq]
//
// Every add takes the running sum as its first operand, as the Go loop's
// sum += term does.
TEXT ·accumulateKernel(SB), NOSPLIT, $0-64
	MOVQ grad+0(FP), AX
	MOVQ hess+8(FP), BX
	MOVQ rows_base+16(FP), SI
	MOVQ rates_base+40(FP), DI
	MOVQ rows_len+24(FP), CX
	VMOVUPD (AX), Y0
	VMOVUPD (BX), Y1
	VMOVUPD 32(BX), Y2
	VMOVUPD 64(BX), X3
	TESTQ CX, CX
	JZ   done

loop:
	VMOVUPD      (SI), Y4           // [1 u v w]
	VBROADCASTSD (DI), Y5           // r in every lane
	VMULPD       Y5, Y4, Y6         // r·[1 u v w]
	VADDPD       Y6, Y0, Y0
	VMULPD       Y5, Y5, Y7         // q = r·r
	VMULPD       Y7, Y4, Y8         // Q = [q uq vq wq]
	VADDPD       Y8, Y1, Y1
	VPERMPD      $0x95, Y4, Y9      // [u u u v]
	VPERMPD      $0xB9, Y8, Y10     // [uq vq wq vq]
	VMULPD       Y10, Y9, Y9
	VADDPD       Y9, Y2, Y2
	VPERMPD      $0x0E, Y4, Y11     // [v w . .]
	VPERMPD      $0x0F, Y8, Y12     // [wq wq . .]
	VMULPD       X12, X11, X11
	VADDPD       X11, X3, X3
	ADDQ         $32, SI
	ADDQ         $8, DI
	DECQ         CX
	JNZ          loop

done:
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (BX)
	VMOVUPD Y2, 32(BX)
	VMOVUPD X3, 64(BX)
	VZEROUPPER
	RET

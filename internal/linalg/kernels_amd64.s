#include "textflag.h"

// Adam's constants as float64 bit patterns: β1, 1-β1, β2, 1-β2, ε
// (0.9, 0.1, 0.999, 0.001, 1e-8 rounded to nearest).
DATA adamConst<>+0(SB)/8, $0x3feccccccccccccd
DATA adamConst<>+8(SB)/8, $0x3fb999999999999a
DATA adamConst<>+16(SB)/8, $0x3feff7ced916872b
DATA adamConst<>+24(SB)/8, $0x3f50624dd2f1a9fc
DATA adamConst<>+32(SB)/8, $0x3e45798ee2308c3a
GLOBL adamConst<>(SB), RODATA|NOPTR, $40

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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

// func adamRowAVX2(w, m, v, x *float64, n int, gh float64, s *AdamStep)
//
// Four lanes per pass, each running AdamRow's scalar expression one IEEE
// op at a time in Go's evaluation order. No FMA: a fused multiply-add
// rounds once where Go rounds twice.
TEXT ·adamRowAVX2(SB), NOSPLIT, $0-56
	MOVQ w+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ x+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ s+48(FP), AX
	VBROADCASTSD gh+40(FP), Y15
	VBROADCASTSD 8(AX), Y14      // α
	VBROADCASTSD 16(AX), Y13     // N
	VBROADCASTSD 0(AX), Y6       // lr
	VBROADCASTSD 24(AX), Y8      // corr1
	VBROADCASTSD 32(AX), Y7      // corr2
	VBROADCASTSD adamConst<>+0(SB), Y12
	VBROADCASTSD adamConst<>+8(SB), Y11
	VBROADCASTSD adamConst<>+16(SB), Y10
	VBROADCASTSD adamConst<>+24(SB), Y9
	VBROADCASTSD adamConst<>+32(SB), Y5

loop:
	VMOVUPD (BX), Y0
	VMULPD  Y0, Y15, Y0          // t = gh*x
	VMOVUPD (DI), Y1
	VMULPD  Y1, Y14, Y2          // α*w
	VDIVPD  Y13, Y2, Y2          // (α*w)/N
	VADDPD  Y2, Y0, Y0           // grad = t + (α*w)/N
	VMOVUPD (SI), Y2
	VMULPD  Y2, Y12, Y2          // β1*m
	VMULPD  Y0, Y11, Y3          // (1-β1)*grad
	VADDPD  Y3, Y2, Y2           // m'
	VMOVUPD Y2, (SI)
	VMOVUPD (DX), Y3
	VMULPD  Y3, Y10, Y3          // β2*v
	VMULPD  Y0, Y9, Y4           // (1-β2)*grad
	VMULPD  Y0, Y4, Y4           // ((1-β2)*grad)*grad
	VADDPD  Y4, Y3, Y3           // v'
	VMOVUPD Y3, (DX)
	VMULPD  Y2, Y8, Y2           // m'*corr1
	VMULPD  Y3, Y7, Y3           // v'*corr2
	VSQRTPD Y3, Y3
	VADDPD  Y5, Y3, Y3           // √(v'*corr2) + ε
	VMULPD  Y2, Y6, Y2           // lr*(m'*corr1)
	VDIVPD  Y3, Y2, Y2
	VSUBPD  Y2, Y1, Y1           // w - lr*(m'*corr1)/(√(v'*corr2)+ε)
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, BX
	SUBQ    $4, CX
	JNZ     loop
	VZEROUPPER
	RET

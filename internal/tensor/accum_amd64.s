#include "textflag.h"

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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func accumAVX2(d *float64, n int, a *float64, lda int, b *float64, ldb int, k int)
//
// d[j] += a[p*lda]*b[p*ldb+j] for p = 0..k-1 in order, every j < n. Output
// columns are the lanes: 16 columns (four YMM accumulators), then 4, then
// 1 (scalar) at a time, each block's accumulators held in registers across
// all k terms. Every term is VMULPD then VADDPD (never a fused
// multiply-add), so each lane rounds exactly as MULSD then ADDSD would.
TEXT ·accumAVX2(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R8
	MOVQ b+32(FP), DX
	MOVQ ldb+40(FP), R9
	MOVQ k+48(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9

block16:
	CMPQ CX, $16
	JLT  block4
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ SI, R11
	MOVQ DX, R12
	MOVQ R10, R13

terms16:
	VBROADCASTSD (R11), Y4
	VMULPD 0(R12), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(R12), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(R12), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(R12), Y4, Y8
	VADDPD Y8, Y3, Y3
	ADDQ R8, R11
	ADDQ R9, R12
	DECQ R13
	JNZ  terms16
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, CX
	JMP  block16

block4:
	CMPQ CX, $4
	JLT  block1
	VMOVUPD (DI), Y0
	MOVQ SI, R11
	MOVQ DX, R12
	MOVQ R10, R13

terms4:
	VBROADCASTSD (R11), Y4
	VMULPD (R12), Y4, Y5
	VADDPD Y5, Y0, Y0
	ADDQ R8, R11
	ADDQ R9, R12
	DECQ R13
	JNZ  terms4
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  block4

block1:
	TESTQ CX, CX
	JZ    done
	VMOVSD (DI), X0
	MOVQ SI, R11
	MOVQ DX, R12
	MOVQ R10, R13

terms1:
	VMOVSD (R11), X4
	VMULSD (R12), X4, X5
	VADDSD X5, X0, X0
	ADDQ R8, R11
	ADDQ R9, R12
	DECQ R13
	JNZ  terms1
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, DX
	DECQ CX
	JMP  block1

done:
	VZEROUPPER
	RET

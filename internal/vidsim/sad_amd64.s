//go:build amd64 && !race

#include "textflag.h"

// func sadRows(a, b *byte, stride int, limit int64) int64
//
// Row r of each block is the 16 bytes at r*stride. PSADBW sums a row's
// absolute differences into two 64-bit lanes, one per 8-byte half; both
// are added to the running total, which is compared with limit after
// every row, as sadRef does, so an early exit returns sadRef's partial
// sum. SSE2 is part of the amd64 baseline, so no CPU check is needed.
TEXT ·sadRows(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ stride+16(FP), DX
	MOVQ limit+24(FP), BX
	XORQ AX, AX
	MOVQ $16, CX

row:
	MOVOU  (SI), X0
	MOVOU  (DI), X1
	PSADBW X1, X0
	MOVQ   X0, R8
	PEXTRW $4, X0, R9
	ADDQ   R8, AX
	ADDQ   R9, AX
	CMPQ   AX, BX
	JGE    done
	ADDQ   DX, SI
	ADDQ   DX, DI
	DECQ   CX
	JNZ    row

done:
	MOVQ AX, ret+32(FP)
	RET

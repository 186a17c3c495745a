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

// ROWS4 adds to X0 the SADs of the four reference rows from (p) on
// against source rows s0–s3 held in registers (DX is the stride, R9
// three strides).
#define ROWS4(p, s0, s1, s2, s3) \
	MOVOU (p), X1; PSADBW s0, X1; PADDQ X1, X0; \
	MOVOU (p)(DX*1), X2; PSADBW s1, X2; PADDQ X2, X0; \
	MOVOU (p)(DX*2), X3; PSADBW s2, X3; PADDQ X3, X0; \
	MOVOU (p)(R9*1), X4; PSADBW s3, X4; PADDQ X4, X0

// ROWS4M is ROWS4 with the source rows read from (q) on.
#define ROWS4M(p, q) \
	MOVOU (q), X1; MOVOU (p), X5; PSADBW X1, X5; PADDQ X5, X0; \
	MOVOU (q)(DX*1), X2; MOVOU (p)(DX*1), X6; PSADBW X2, X6; PADDQ X6, X0; \
	MOVOU (q)(DX*2), X3; MOVOU (p)(DX*2), X7; PSADBW X3, X7; PADDQ X7, X0; \
	MOVOU (q)(R9*1), X4; MOVOU (p)(R9*1), X5; PSADBW X4, X5; PADDQ X5, X0

// LANES sets r to the sum of the two 64-bit lanes of x.
#define LANES(x, r) \
	PSHUFD $0xEE, x, X7; PADDQ x, X7; MOVQ X7, r

// func searchGrid(src, win []byte, stride, nx, zero, n int) (idx int, sad int64)
//
// The incumbent starts as candidate zero, summed in full. The other
// candidates follow in raster order, each summed four rows at a time:
// after each group the running sum is compared with the best SAD so far
// (BX), and a candidate whose sum reaches it is dropped. One whose sum
// stays below it for all sixteen rows becomes the incumbent.
//
// motionSearchRef (kernel_test.go) checks after every row, so a
// candidate that comes first in raster order also wins when its sum
// hits the best exactly at the row where it reaches it. The incumbent is candidate zero or one visited
// earlier, so that can only happen for a candidate i below the
// incumbent's index; since row sums only grow, it wins exactly when some
// prefix of its row sums equals the best. Only on that path does the
// kernel go back over the group where the sum crossed, row by row from
// the sum before it (R13).
//
// Registers: SI source span, DI candidate i, CX and R12 the current
// group's reference and source rows, DX stride, R9 three strides, AX
// incumbent index, BX its SAD, R10 i, R11 candidates left in the grid
// row, R8 a group's running sum. Source rows 0–7 stay in X8–X15; X15
// is Go's internal-ABI zero register, which this ABI0 routine may
// clobber: the call's ABI transition restores it.
TEXT ·searchGrid(SB), NOSPLIT, $0-96
	MOVQ src_base+0(FP), SI
	MOVQ win_base+24(FP), DI
	MOVQ nx+56(FP), R11
	MOVQ zero+64(FP), AX
	XORL DX, DX
	DIVQ R11 // AX = zero / nx, DX = zero % nx
	MOVQ DX, R8
	MOVQ stride+48(FP), DX
	LEAQ (DX)(DX*2), R9
	IMULQ DX, AX
	LEAQ (DI)(AX*4), CX
	LEAQ (CX)(R8*4), CX // candidate zero

	MOVOU (SI), X8
	MOVOU (SI)(DX*1), X9
	MOVOU (SI)(DX*2), X10
	MOVOU (SI)(R9*1), X11
	LEAQ  (SI)(DX*4), R12
	MOVOU (R12), X12
	MOVOU (R12)(DX*1), X13
	MOVOU (R12)(DX*2), X14
	MOVOU (R12)(R9*1), X15

	PXOR X0, X0
	ROWS4(CX, X8, X9, X10, X11)
	LEAQ (CX)(DX*4), CX
	ROWS4(CX, X12, X13, X14, X15)
	LEAQ (CX)(DX*4), CX
	LEAQ (R12)(DX*4), R12
	ROWS4M(CX, R12)
	LEAQ (CX)(DX*4), CX
	LEAQ (R12)(DX*4), R12
	ROWS4M(CX, R12)
	LANES(X0, BX)
	MOVQ zero+64(FP), AX
	XORQ R10, R10

candidate:
	CMPQ R10, zero+64(FP)
	JEQ  next
	PXOR X0, X0
	XORL R13, R13
	MOVQ DI, CX
	MOVQ SI, R12
	ROWS4(CX, X8, X9, X10, X11)
	LANES(X0, R8)
	CMPQ R8, BX
	JGE  crossed
	MOVQ R8, R13
	LEAQ (CX)(DX*4), CX
	LEAQ (R12)(DX*4), R12
	ROWS4(CX, X12, X13, X14, X15)
	LANES(X0, R8)
	CMPQ R8, BX
	JGE  crossed
	MOVQ R8, R13
	LEAQ (CX)(DX*4), CX
	LEAQ (R12)(DX*4), R12
	ROWS4M(CX, R12)
	LANES(X0, R8)
	CMPQ R8, BX
	JGE  crossed
	MOVQ R8, R13
	LEAQ (CX)(DX*4), CX
	LEAQ (R12)(DX*4), R12
	ROWS4M(CX, R12)
	LANES(X0, R8)
	CMPQ R8, BX
	JGE  crossed
	MOVQ R8, BX // below the best in full: the new incumbent
	MOVQ R10, AX
	JMP  next

crossed:
	CMPQ R10, AX
	JGE  next

tie:
	MOVOU  (CX), X1
	MOVOU  (R12), X2
	PSADBW X2, X1
	LANES(X1, R8)
	ADDQ   R8, R13
	CMPQ   R13, BX
	JLT    tierow
	JNE    next
	MOVQ   R10, AX // equal at this row: the earlier candidate wins
	JMP    next

tierow:
	ADDQ DX, CX
	ADDQ DX, R12
	JMP  tie

next:
	INCQ R10
	ADDQ $4, DI
	DECQ R11
	JNZ  more
	MOVQ nx+56(FP), R11
	LEAQ (DI)(DX*4), DI
	LEAQ (R11*4), R8
	SUBQ R8, DI // the next grid row's first candidate

more:
	CMPQ R10, n+72(FP)
	JLT  candidate
	MOVQ AX, idx+80(FP)
	MOVQ BX, sad+88(FP)
	RET

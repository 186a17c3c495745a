//go:build amd64 && !race

package vidsim

// sadKernel is sad's kernel in this build: one SSE2 PSADBW per row, in
// sad_amd64.s. It takes the blocks' spans as slices, so the caller's
// slicing bounds every byte the assembly reads.
func sadKernel(a, b []byte, stride int, limit int64) int64 {
	return sadRows(&a[0], &b[0], stride, limit)
}

// sadRows returns the SAD of the 16×16 blocks whose rows start at a and
// b and every stride bytes after, with sadRef's early exit: see
// sad_amd64.s.
//
//go:noescape
func sadRows(a, b *byte, stride int, limit int64) int64

// searchGrid is motionSearch's kernel in this build, in SSE2 assembly
// (sad_amd64.s). src is the source block's span and win the reference
// span holding every candidate, both rows stride bytes apart; candidate
// i of the n on the grid, nx to a row, is the block at
// win[i/nx*4*stride+i%nx*4], and candidate zero is the vector (0,0). It
// returns the index and SAD motionSearch's rule picks, reading no byte
// outside src and win: the caller's slicing bounds the assembly.
//
//go:noescape
func searchGrid(src, win []byte, stride, nx, zero, n int) (idx int, sad int64)

//go:build amd64 && !race

package vidsim

// searchGrid is the encoder's one SAD kernel in this build, in SSE2
// assembly (sad_amd64.s): motionSearch runs it on the whole candidate
// grid, and EncodeB on a 1×1 grid for each co-located reference block.
// src is the source block's span and win the reference span holding
// every candidate, both rows stride bytes apart; candidate i of the n on
// the grid, nx to a row, is the block at win[i/nx*4*stride+i%nx*4], and
// candidate zero is the vector (0,0). It returns the index and SAD
// motionSearch's rule picks, reading no byte outside src and win: the
// caller's slicing bounds the assembly.
//
//go:noescape
func searchGrid(src, win []byte, stride, nx, zero, n int) (idx int, sad int64)

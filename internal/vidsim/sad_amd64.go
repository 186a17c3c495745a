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

//go:build !amd64 || race

package vidsim

// sadKernel is sad's kernel in this build: the portable sadSWAR. Race
// builds use it on amd64 too, so the detector sees every reference-pixel
// read as an instrumented Go load.
func sadKernel(a, b []byte, stride int, limit int64) int64 {
	return sadSWAR(a, b, stride, limit)
}

// searchGrid is motionSearch's kernel in this build: the portable
// searchSWAR, for the same reason.
func searchGrid(src, win []byte, stride, nx, zero, n int) (int, int64) {
	return searchSWAR(src, win, stride, nx, zero, n)
}

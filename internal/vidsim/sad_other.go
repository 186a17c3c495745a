//go:build !amd64 || race

package vidsim

// sadKernel is sad's kernel in this build: the portable sadSWAR. Race
// builds use it on amd64 too, so the detector sees every reference-pixel
// read as an instrumented Go load.
func sadKernel(a, b []byte, stride int, limit int64) int64 {
	return sadSWAR(a, b, stride, limit)
}

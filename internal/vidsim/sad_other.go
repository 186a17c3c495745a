//go:build !amd64 || race

package vidsim

// searchGrid is the encoder's one SAD kernel in this build, for motion
// search and EncodeB's compare alike: the portable searchSWAR. Race
// builds use it on amd64 too, so the detector sees every reference-pixel
// read as an instrumented Go load.
func searchGrid(src, win []byte, stride, nx, zero, n int) (int, int64) {
	return searchSWAR(src, win, stride, nx, zero, n)
}

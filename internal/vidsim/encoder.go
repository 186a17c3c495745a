package vidsim

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"piper/internal/arena"
)

// Config sets the encoder parameters that matter for scheduling.
type Config struct {
	// W is the row-offset dependency in macroblock rows — the paper's
	// w = mv_range / pixels_per_row. Motion vectors may reach this many
	// MB rows below the current row in the reference frame.
	W int
	// QShift is the quantization strength (larger = coarser).
	QShift uint
	// Gop, BRun, CutThresh configure the frame-type decider.
	Gop, BRun, CutThresh int
}

// DefaultConfig mirrors a small but realistic operating point.
func DefaultConfig() Config {
	return Config{W: 1, QShift: 4, Gop: 24, BRun: 2, CutThresh: 24}
}

// Recon is a frame reconstruction being produced by the encoder. Inter
// prediction reads reconstructions, not source frames, so a scheduler
// that violated the row dependencies would corrupt the bitstream — the
// tests rely on this to give the dependency audit teeth.
type Recon struct {
	Frame    int
	Pix      []byte
	ref      *arena.Ref   // arena region backing Pix; nil off the arena path
	rowsDone atomic.Int32 // completed macroblock rows
}

// RowsDone reports how many MB rows of the reconstruction are complete.
func (rc *Recon) RowsDone() int { return int(rc.rowsDone.Load()) }

// retain adds a reference to the arena region backing Pix. No-op for
// reconstructions allocated off the arena path.
func (rc *Recon) retain() {
	if rc.ref != nil {
		rc.ref.Retain()
	}
}

// release drops one reference to the backing arena region, recycling the
// pixels once the last holder lets go. Nil-safe so callers can release a
// possibly-absent predecessor unconditionally.
func (rc *Recon) release() {
	if rc != nil && rc.ref != nil {
		rc.ref.Release()
	}
}

// Encoder encodes one video with shared, immutable configuration.
// Its methods are safe for concurrent use on distinct frames/rows as long
// as the pipeline dependencies are respected; the violations counter
// records any read of reconstruction rows that were not yet complete.
type Encoder struct {
	Video *Video
	Cfg   Config
	// A, when set, backs reconstruction buffers with recycled arena
	// regions; nil means plain allocation (the serial and threaded
	// baselines, which never release).
	A          *arena.Arena
	violations atomic.Int64
	scratch    sync.Pool // spare *Recon for EncodeB's no-reference path
}

// NewEncoder wraps a video.
func NewEncoder(v *Video, cfg Config) *Encoder {
	if cfg.W < 1 {
		cfg.W = 1
	}
	return &Encoder{Video: v, Cfg: cfg}
}

// Violations reports audited dependency violations (must stay 0 under a
// correct scheduler).
func (e *Encoder) Violations() int64 { return e.violations.Load() }

// NewRecon allocates the reconstruction buffer for frame fi: a recycled
// arena region when the encoder is arena-backed, a fresh slice otherwise.
// Recycled pixels are not zeroed — every pixel an encode reads (intra
// neighbours, completed reference rows) was written first, and the
// determinism tests against the serial encoder hold the proof.
func (e *Encoder) NewRecon(fi int) *Recon {
	n := e.Video.W * e.Video.H
	if e.A == nil {
		return &Recon{Frame: fi, Pix: make([]byte, n)}
	}
	ref := e.A.Get(n)
	ref.B = ref.B[:n]
	return &Recon{Frame: fi, Pix: ref.B, ref: ref}
}

// searchRange is the motion-search radius in pixels for a given row
// offset w.
func (e *Encoder) searchRange() int { return e.Cfg.W * MB }

// EncodeRow encodes macroblock row r of frame fi into rc. For TypeP the
// ref reconstruction must have rows 0..min(r+W, rows-1) complete; the
// encoder audits this. It returns the row's bit cost and a checksum.
// It codes no bitstream; encodeRow is the same encoder with the sink
// that EncodeStream and EncodePiperStream attach.
func (e *Encoder) EncodeRow(fi int, typ FrameType, r int, rc *Recon, ref *Recon) (int64, uint64) {
	return e.encodeRow(fi, typ, r, rc, ref, nil)
}

// encodeRow is EncodeRow with an optional sink: when sw is non-nil, each
// macroblock's record (mode, motion vector, quantized residual) is
// written to it from the same prediction the reconstruction uses, so the
// coded stream and the estimate come from one decision per macroblock.
func (e *Encoder) encodeRow(fi int, typ FrameType, r int, rc *Recon, ref *Recon, sw *streamWriter) (int64, uint64) {
	v := e.Video
	cols := v.Cols()
	var bits int64
	var sum uint64 = 1469598103934665603
	for c := 0; c < cols; c++ {
		var mbBits int64
		var mbSig uint64
		if typ == TypeI || ref == nil {
			mbBits, mbSig = e.encodeIntraMB(fi, r, c, rc, sw)
		} else {
			mbBits, mbSig = e.encodeInterMB(fi, r, c, rc, ref, sw)
		}
		bits += mbBits
		sum = (sum ^ mbSig) * 1099511628211
	}
	rc.rowsDone.Store(int32(r + 1))
	return bits, sum
}

// dcPredict computes the DC intra predictor for the macroblock at
// (x0, y0): the mean of the reconstructed row above and column to the
// left, or 128 at the frame corner. Both the encoder and the decoder
// run this on their own reconstruction, which is what keeps them in sync.
func dcPredict(pix []byte, stride, x0, y0 int) int {
	var dc, n int
	if y0 > 0 {
		for x := x0; x < x0+MB; x++ {
			dc += int(pix[(y0-1)*stride+x])
			n++
		}
	}
	if x0 > 0 {
		for y := y0; y < y0+MB; y++ {
			dc += int(pix[y*stride+x0-1])
			n++
		}
	}
	if n == 0 {
		return 128
	}
	return dc / n
}

// encodeIntraMB performs DC intra prediction from the already-encoded
// neighbours inside the same reconstruction.
func (e *Encoder) encodeIntraMB(fi, r, c int, rc *Recon, sw *streamWriter) (int64, uint64) {
	v := e.Video
	src := v.Frames[fi]
	x0, y0 := c*MB, r*MB
	dc := dcRow(dcPredict(rc.Pix, v.W, x0, y0))
	var res residual
	bits, sig := e.reconstructMB(src, rc, x0, y0, dc[:], 0, &res)
	if sw != nil {
		sw.buf.WriteByte(mbModeIntra)
		sw.codeResidual(&res, e.Cfg.QShift)
	}
	return bits + 6, sig ^ 0xA5A5 // mode header
}

// encodeInterMB motion-searches the reference reconstruction within the
// legal window and falls back to intra when the match is poor.
func (e *Encoder) encodeInterMB(fi, r, c int, rc *Recon, ref *Recon, sw *streamWriter) (int64, uint64) {
	v := e.Video
	src := v.Frames[fi]
	x0, y0 := c*MB, r*MB
	rows := v.Rows()

	// Audit the cross-frame dependency: we may touch ref rows up to r+W.
	need := r + e.Cfg.W
	if need > rows-1 {
		need = rows - 1
	}
	if ref.RowsDone() < need+1 {
		e.violations.Add(1)
	}

	bdx, bdy, bestSAD := e.motionSearch(src, ref.Pix, x0, y0, r)

	// Intra fallback for bad matches (e.g. right after occlusions).
	if bestSAD > 24*MB*MB {
		return e.encodeIntraMB(fi, r, c, rc, sw)
	}

	var res residual
	bits, sig := e.reconstructMB(src, rc, x0, y0, ref.Pix[(y0+bdy)*v.W+x0+bdx:], v.W, &res)
	if sw != nil {
		sw.buf.WriteByte(mbModeInter)
		sw.varint(int64(bdx))
		sw.varint(int64(bdy))
		sw.codeResidual(&res, e.Cfg.QShift)
	}
	sig = sig*31 + uint64(uint32(bdx*131071+bdy))
	return bits + 10, sig // mv + header bits
}

// dcRow is one row of the DC intra predictor; read with stride 0 it is
// the whole predicted block. dcPredict's mean of bytes always fits a byte.
func dcRow(dc int) (row [MB]byte) {
	for i := range row {
		row[i] = byte(dc)
	}
	return row
}

// residual is a macroblock's quantized residual as reconstructMB leaves
// it for the bitstream sink, eight pixels to a word in raster order: in
// each byte of mag the magnitude |src − pred| &^ (2^QShift − 1), and in
// each byte of neg 0xff where src < pred.
type residual struct{ mag, neg [MB * MB / 8]uint64 }

// reconstructMB quantizes the residual against the prediction block whose
// row k starts at pred[k*stride] (stride 0 repeats one row: the DC
// predictor), writes the reconstruction, and leaves the quantized
// residual in res. It returns the bit estimate and a content signature.
//
// Quantization truncates toward zero, as real codecs do: the coded value
// is (src − pred) / 2^QShift, so small residuals of either sign become
// 0, and the reconstruction adds it times 2^QShift back. Each row takes
// two passes. The first has no branch and works on eight pixels a word:
// absDiffSign8 gives |src − pred| and its sign, masking drops the
// magnitude's low QShift bits, and out = pred ± that lies between pred
// and src, so no lane carries or borrows and no clamp is needed; the bit
// estimate, the sum of the magnitudes over 2^QShift, is accumulated in
// pairs16's lanes. The second folds the output row into the FNV-1a
// signature.
func (e *Encoder) reconstructMB(src []byte, rc *Recon, x0, y0 int, pred []byte, stride int, res *residual) (int64, uint64) {
	w := e.Video.W
	keep := uint64(byte(0xff<<e.Cfg.QShift)) * 0x0101010101010101
	le := binary.LittleEndian
	var acc uint64 // pairs16 lanes: all four sum to under 1<<16, as in sadSWAR
	var sig uint64 = 14695981039346656037
	for k := 0; k < MB; k++ {
		row := (y0+k)*w + x0
		s, out, p := src[row:][:MB], rc.Pix[row:][:MB], pred[k*stride:][:MB]
		for h := 0; h < MB; h += 8 {
			pw := le.Uint64(p[h:])
			d, ge := absDiffSign8(le.Uint64(s[h:]), pw)
			a := d & keep
			le.PutUint64(out[h:], pw+a&ge-a&^ge)
			res.mag[2*k+h/8], res.neg[2*k+h/8] = a, ^ge
			acc += pairs16(a)
		}
		for _, b := range out {
			sig = (sig ^ uint64(b)) * 1099511628211
		}
	}
	return int64(acc*lanes16>>48) >> e.Cfg.QShift, sig
}

// searchFunc is the signature of the motion-search kernels: searchGrid
// and searchSWAR.
type searchFunc func(src, win []byte, stride, nx, zero, n int) (idx int, sad int64)

// motionSearch finds the best motion vector for the MB at (x0, y0) of
// row r within the legal window (reference rows <= r + W), on a 4-pixel
// grid. It returns the vector and its SAD, exactly those of
// motionSearchRef in kernel_test.go, the definition: take the SAD at
// (0,0) in full, then visit the grid in raster order, sum each candidate
// row by row until the sum reaches the best so far, and take a candidate
// whose sum ends below the best, or equal to it when the candidate comes
// first in raster order (which only happens before (0,0), while (0,0) is
// the best).
//
// It clips the grid once and makes one kernel call, searchGrid, on the
// source block and on the reference span that holds every candidate.
func (e *Encoder) motionSearch(src, refPix []byte, x0, y0, r int) (int, int, int64) {
	return e.searchWith(searchGrid, src, refPix, x0, y0, r)
}

// searchWith is motionSearch with its kernel as a parameter, so the tests
// and benchmarks can run the portable one on amd64 too. The clipped
// bounds are multiples of 4 because MB, x0, y0 and the frame size are
// multiples of 16.
func (e *Encoder) searchWith(kernel searchFunc, src, refPix []byte, x0, y0, r int) (int, int, int64) {
	v := e.Video
	rangePx := e.searchRange()
	maxY := min((r+e.Cfg.W)*MB, v.H-MB) // stay within completed ref rows
	loX, hiX := -min(rangePx, x0), min(rangePx, v.W-MB-x0)
	loY, hiY := -min(rangePx, y0), min(rangePx, maxY-y0)
	nx := (hiX-loX)/4 + 1
	n := nx * ((hiY-loY)/4 + 1)
	zero := -loY/4*nx - loX/4
	idx, s := kernel(mbSpan(src, v.W, x0, y0),
		span(refPix, v.W, x0+loX, y0+loY, hiX-loX+MB, hiY-loY+MB), v.W, nx, zero, n)
	return loX + idx%nx*4, loY + idx/nx*4, s
}

// searchSWAR is the portable searchGrid: sadSWAR on each candidate, with
// its per-row early exit at the best so far, under motionSearch's rule.
func searchSWAR(src, win []byte, stride, nx, zero, n int) (int, int64) {
	idx, best := zero, sadSWAR(src, win[zero/nx*4*stride+zero%nx*4:], stride, 1<<62)
	for i, row := 0, 0; i < n; row += 4 * stride { // row: offset of a grid row
		for off := row; off < row+4*nx; off, i = off+4, i+1 {
			if i == zero {
				continue
			}
			if s := sadSWAR(src, win[off:], stride, best); s < best || s == best && i < idx {
				idx, best = i, s
			}
		}
	}
	return idx, best
}

// sad computes the sum of absolute differences between the MB at (x0,y0)
// in src and the block at (x,y) in ref, with early exit past limit. The
// returned sum, partial on an early exit, is that of a byte-by-byte loop
// that checks the limit after every row. EncodeB compares its two
// references with it; motionSearch has its own kernel.
//
// sad cuts each block's span, first row to last, out of its frame with
// mbSpan and hands both to sadKernel: the SSE2 sadRows on amd64,
// sadSWAR on every other GOARCH and under the race detector. mbSpan's
// checks are the kernels' bounds checks; the assembly has none of its
// own.
func (e *Encoder) sad(src, ref []byte, x0, y0, x, y int, limit int64) int64 {
	w := e.Video.W
	return sadKernel(mbSpan(src, w, x0, y0), mbSpan(ref, w, x, y), w, limit)
}

// mbSpan is the span of the MB×MB block at (x, y) of frame p, w pixels
// wide.
func mbSpan(p []byte, w, x, y int) []byte { return span(p, w, x, y, MB, MB) }

// span is the span of frame p, w pixels wide, from the first to the last
// pixel of the bw×bh rectangle at (x, y). Slicing checks the span's end
// against cap(p) only, so the index checks it against len(p).
func span(p []byte, w, x, y, bw, bh int) []byte {
	end := (y+bh-1)*w + x + bw
	_ = p[end-1]
	return p[y*w+x : end]
}

// sadSWAR is the portable SAD kernel on two block spans whose rows start
// every stride bytes. Each row is two 8-byte words per side. absDiff8
// takes the per-byte differences, pairs16 folds them into four 16-bit
// lanes, and acc accumulates those lanes over the rows: a lane gains at
// most 4*255 per row, 16 rows keep it under 1<<14, and all four lanes
// sum to under 1<<16, so the multiply by lanes16 leaves the running sum
// exact in the top 16 bits.
func sadSWAR(a, b []byte, stride int, limit int64) int64 {
	le := binary.LittleEndian
	var acc uint64
	var s int64
	for r := 0; r < MB; r++ {
		ra, rb := a[r*stride:][:MB], b[r*stride:][:MB]
		acc += pairs16(absDiff8(le.Uint64(ra), le.Uint64(rb))) +
			pairs16(absDiff8(le.Uint64(ra[8:]), le.Uint64(rb[8:])))
		s = int64(acc * lanes16 >> 48)
		if s >= limit {
			return s
		}
	}
	return s
}

const (
	high8   = 0x8080808080808080 // top bit of every byte lane
	lanes16 = 0x0001000100010001 // 1 in every 16-bit lane
)

// absDiff8 returns |a[i]-b[i]| in every byte lane i of two words.
func absDiff8(a, b uint64) uint64 {
	d, _ := absDiffSign8(a, b)
	return d
}

// absDiffSign8 returns |a[i]-b[i]| in every byte lane i of two words,
// and 0xff in every lane of ge where a[i] >= b[i]. No subtraction
// borrows across a lane: the comparison subtracts 7-bit lanes from lanes
// with their top bit set, and the final subtraction takes each lane's
// smaller byte from its larger one.
func absDiffSign8(a, b uint64) (d, ge uint64) {
	// Top bit of each lane of lo: a's low 7 bits >= b's. Then a >= b
	// where a has the top bit b lacks, or both agree on it and lo says so.
	lo := (a | high8) - (b &^ high8)
	ge = ((a&^b | ^(a^b)&lo) & high8 >> 7) * 0xff
	swap := (a ^ b) & ge
	return (b ^ swap) - (a ^ swap), ge // max - min per lane
}

// pairs16 adds the byte lanes of x pairwise into four 16-bit lanes.
func pairs16(x uint64) uint64 {
	const even = 0x00ff00ff00ff00ff
	return x&even + x>>8&even
}

// EncodeB encodes B-frame bi (no reconstruction is produced; B-frames are
// not references). fwd is the preceding I/P reconstruction (may be nil
// right after a scene cut, when only backward prediction is safe), bwd
// the succeeding one; both must be fully reconstructed.
func (e *Encoder) EncodeB(bi int, fwd, bwd *Recon) (int64, uint64) {
	v := e.Video
	rows := v.Rows()
	if fwd != nil && fwd.RowsDone() < rows {
		e.violations.Add(1)
	}
	if bwd != nil && bwd.RowsDone() < rows {
		e.violations.Add(1)
	}
	src := v.Frames[bi]
	var bits int64
	var sum uint64 = 1469598103934665603
	// The intra scratch reconstruction is only needed when a block has no
	// reference at all (fwd == bwd == nil, right after a cut with no
	// successor) — allocate it lazily from the encoder's pool instead of
	// burning a frame-sized buffer on every call.
	var scratch *Recon
	refs := [2]*Recon{fwd, bwd}
	cols := v.Cols()
	defer func() {
		if scratch != nil {
			scratch.rowsDone.Store(0)
			e.scratch.Put(scratch)
		}
	}()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			x0, y0 := c*MB, r*MB
			best := int64(1) << 62
			var sig uint64
			for ri, ref := range refs {
				if ref == nil {
					continue
				}
				s := e.sad(src, ref.Pix, x0, y0, x0, y0, best)
				if s < best {
					best = s
					sig = uint64(ri)
				}
			}
			if best == int64(1)<<62 {
				// No reference at all: intra-code the block. Blocks
				// intra-code in raster order (the references are fixed for
				// the whole call), so every neighbour dcPredict reads was
				// written this call — a recycled scratch needs no zeroing.
				if scratch == nil {
					if sp, ok := e.scratch.Get().(*Recon); ok {
						scratch = sp
					} else {
						scratch = &Recon{Pix: make([]byte, len(src))}
					}
				}
				b, g := e.encodeIntraMB(bi, r, c, scratch, nil)
				bits += b
				sum = (sum ^ g) * 1099511628211
				continue
			}
			bits += best>>e.Cfg.QShift + 4
			sum = (sum ^ (sig*2654435761 + uint64(best))) * 1099511628211
		}
	}
	return bits, sum
}

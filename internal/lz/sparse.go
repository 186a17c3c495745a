package lz

import (
	"encoding/binary"
	"math/bits"
)

// Sparse sliding chunk index for the streaming compressor (stream.go).
//
// The dense factorizer (Factorize, ModeDense) needs five n-sized int32
// arrays per block — fine at 16 KiB blocks, fatal at streaming scale,
// where the working set must stay O(chunk + index) no matter how large
// the input grows. Following the sparse suffix/LCP idea (Ayad, Loukides,
// Pissis, Verbeek, "Sparse Suffix and LCP Array: Simple, Direct, Small,
// and Fast", arXiv:2310.09023), only positions on an s-aligned sampling
// grid are indexed: the index stores one int32 per sampled position
// instead of five per position, trading match-finding exhaustiveness for
// a footprint the sample rate controls directly.
//
// Concretely the index is a fingerprint-chained catalogue of the chunk's
// sampled suffixes: each grid position's 8-byte prefix is hashed into a
// chain, and — the part that makes parallel block factorization
// deterministic — the chain heads are snapshotted at every block
// boundary, so the factorizer of block b sees exactly the sampled
// suffixes of blocks 0..b-1 regardless of how the scheduler interleaves
// the other blocks. Within a block, factorization replays its own grid
// insertions sequentially (factorizeBlockSparse), or uses an exact dense
// suffix array of just that block (factorizeBlockDense), so candidate
// sets never depend on cross-block timing.

const (
	// indexHashBits sizes the per-block chain-head tables (2^bits heads).
	indexHashBits = 12
	indexHashSize = 1 << indexHashBits
	// fingerprintLen is the hashed prefix width: positions closer than
	// this to the chunk end are not indexed and not looked up.
	fingerprintLen = 8
	// maxChainProbe bounds the candidates examined per chain walk, which
	// keeps lookup cost O(1) on repetitive data at a small and
	// deterministic compression cost.
	maxChainProbe = 8
	// minCopyLen is the streaming factorizers' emission threshold: a
	// match shorter than this encodes no better than literals, and the
	// threshold is what makes the worst-case encoded size of a chunk
	// exactly 2·raw bytes (see appendFactors), so output regions can be
	// reserved tightly against the arena's power-of-2 classes.
	minCopyLen = 4
)

// load64 reads 8 little-endian bytes at i; the caller guarantees
// i+fingerprintLen <= len(b).
func load64(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i:]) }

// hash8 maps an 8-byte fingerprint to a chain index.
func hash8(x uint64) uint32 { return uint32((x * 0x9E3779B185EBCA87) >> (64 - indexHashBits)) }

// sampledSlots is the number of grid positions of an n-byte chunk that
// carry a full fingerprint.
func sampledSlots(n, rate int) int {
	if n < fingerprintLen {
		return 0
	}
	return (n-fingerprintLen)/rate + 1
}

// indexScratchLen is the chunk index's working-memory requirement in
// int32 elements: one chain link per sampled slot, one head table
// snapshot per block, and one live head table for the build sweep.
func indexScratchLen(n, rate, blockSize int) int {
	nblocks := (n + blockSize - 1) / blockSize
	return sampledSlots(n, rate) + (nblocks+1)*indexHashSize
}

// chunkIndex is the sparse match index of one chunk. prev chains sampled
// slots that share a fingerprint hash (by descending position); heads
// holds, per block, the chain heads over strictly earlier blocks only.
type chunkIndex struct {
	data      []byte
	rate      int
	blockSize int
	prev      []int32
	heads     []int32 // nblocks × indexHashSize, snapshot at each block start
}

// buildChunkIndex fills ix over data using caller-provided backing of at
// least indexScratchLen(len(data), rate, blockSize) elements. One serial
// O(n/rate) sweep; the streaming pipeline runs it at the top of each
// chunk's parallel stage.
func buildChunkIndex(ix *chunkIndex, data []byte, rate, blockSize int, backing []int32) {
	n := len(data)
	slots := sampledSlots(n, rate)
	nblocks := (n + blockSize - 1) / blockSize
	ix.data, ix.rate, ix.blockSize = data, rate, blockSize
	ix.prev = backing[:slots]
	ix.heads = backing[slots : slots+nblocks*indexHashSize]
	live := backing[slots+nblocks*indexHashSize : slots+(nblocks+1)*indexHashSize]
	for i := range live {
		live[i] = -1
	}
	slot := 0
	for b := 0; b < nblocks; b++ {
		copy(ix.heads[b*indexHashSize:(b+1)*indexHashSize], live)
		blockEnd := (b + 1) * blockSize
		for slot < slots && slot*rate < blockEnd {
			q := slot * rate
			h := hash8(load64(data, q))
			ix.prev[slot] = live[h]
			live[h] = int32(slot)
			slot++
		}
	}
}

// bestBefore walks the chain of data[p:p+fingerprintLen] restricted to
// blocks strictly before blockStart and returns the best (src, len) found,
// seeded with the caller's current best so the merge with in-block
// candidates is a single comparison chain. Longer wins; on equal length
// the larger source position (smaller distance) wins. src is -1 when no
// candidate beats the seed.
func (ix *chunkIndex) bestBefore(blockStart, p, maxLen int, bestSrc, bestL int32) (int32, int32) {
	if p+fingerprintLen > len(ix.data) {
		return bestSrc, bestL
	}
	b := blockStart / ix.blockSize
	slot := ix.heads[b*indexHashSize+int(hash8(load64(ix.data, p)))]
	for probes := 0; slot >= 0 && probes < maxChainProbe; probes++ {
		q := int(slot) * ix.rate
		if l := commonLen(ix.data, q, p, maxLen); l > bestL || (l == bestL && int32(q) > bestSrc) {
			bestSrc, bestL = int32(q), l
		}
		slot = ix.prev[slot]
	}
	return bestSrc, bestL
}

// commonLen is the longest common prefix of data[q:] and data[p:], capped
// at max, word-compared for streaming throughput. q < p; overlap is fine
// (the LZ77 self-copy case): the decoder reproduces the chunk prefix
// byte-identically, so comparing against the raw chunk equals comparing
// against decoded output.
func commonLen(data []byte, q, p, max int) int32 {
	l := 0
	for l+8 <= max {
		x := load64(data, q+l) ^ load64(data, p+l)
		if x != 0 {
			return int32(l + bits.TrailingZeros64(x)>>3)
		}
		l += 8
	}
	for l < max && data[q+l] == data[p+l] {
		l++
	}
	return int32(l)
}

// sparseScratchLen is factorizeBlockSparse's working-memory requirement
// for a blockSize-byte block, in int32 elements: a local chain-head table
// plus one link per in-block grid slot.
func sparseScratchLen(blockSize, rate int) int {
	return indexHashSize + blockSize/rate + 2
}

// factorizeBlockSparse factorizes chunk[start:end] using only the sampled
// grid: cross-block candidates come from the chunk index's block-start
// snapshot, in-block candidates from a local chain the factorizer builds
// over its own grid positions as the greedy pointer advances. Every
// candidate set is a pure function of (chunk, start, end, rate), so
// parallel block factorization is bit-deterministic. Factors are appended
// to dst with chunk-absolute distances; copies shorter than minCopyLen
// are emitted as literals.
func factorizeBlockSparse(chunk []byte, ix *chunkIndex, start, end int, scratch []int32, dst []Factor) []Factor {
	n := len(chunk)
	rate := ix.rate
	localHead := scratch[:indexHashSize]
	for i := range localHead {
		localHead[i] = -1
	}
	firstSlot := (start + rate - 1) / rate
	localPrev := scratch[indexHashSize:]
	slots := sampledSlots(n, rate)
	nextIns := firstSlot

	insertUpTo := func(p int) {
		for nextIns < slots && nextIns*rate < p {
			q := nextIns * rate
			h := hash8(load64(chunk, q))
			localPrev[nextIns-firstSlot] = localHead[h]
			localHead[h] = int32(nextIns)
			nextIns++
		}
	}

	for p := start; p < end; {
		insertUpTo(p)
		var bestSrc, bestL int32 = -1, 0
		maxLen := end - p
		if p+fingerprintLen <= n {
			slot := localHead[hash8(load64(chunk, p))]
			for probes := 0; slot >= 0 && probes < maxChainProbe; probes++ {
				q := int(slot) * rate
				if l := commonLen(chunk, q, p, maxLen); l > bestL || (l == bestL && int32(q) > bestSrc) {
					bestSrc, bestL = int32(q), l
				}
				slot = localPrev[int(slot)-firstSlot]
			}
			if start > 0 {
				bestSrc, bestL = ix.bestBefore(start, p, maxLen, bestSrc, bestL)
			}
		}
		if bestL >= minCopyLen {
			dst = append(dst, Factor{Dist: int32(p) - bestSrc, Len: bestL})
			p += int(bestL)
		} else {
			dst = append(dst, Factor{Lit: chunk[p]})
			p++
		}
	}
	return dst
}

// factorizeBlockDense factorizes chunk[start:end] with the exact dense
// in-block machinery of Factorize — a suffix array of just this block
// with PSV/NSV candidates — merged at each factor start with the sparse
// cross-block candidates of the chunk index. backing must hold
// scratchLen(end-start) int32 elements. The in-block candidates dominate
// length ties automatically (their positions are ≥ start, every
// cross-block position is < start), matching bestBefore's tie rule.
func factorizeBlockDense(chunk []byte, ix *chunkIndex, start, end int, backing []int32, dst []Factor) []Factor {
	block := chunk[start:end]
	nb := len(block)
	if nb == 0 {
		return dst
	}
	isa, psv, nsv := blockIndex(block, backing)

	match := func(p int, q int32) int32 {
		if q < 0 {
			return 0
		}
		return commonLen(block, int(q), p, nb-p)
	}
	for pr := 0; pr < nb; {
		r := isa[pr]
		q1, q2 := psv[r], nsv[r]
		l1, l2 := match(pr, q1), match(pr, q2)
		rel, bestL := q1, l1
		if l2 > l1 || (l2 == l1 && q2 > q1) {
			rel, bestL = q2, l2
		}
		bestSrc := int32(-1)
		if bestL > 0 {
			bestSrc = int32(start) + rel
		}
		p := start + pr
		if start > 0 {
			bestSrc, bestL = ix.bestBefore(start, p, end-p, bestSrc, bestL)
		}
		if bestL >= minCopyLen {
			dst = append(dst, Factor{Dist: int32(p) - bestSrc, Len: bestL})
			pr += int(bestL)
		} else {
			dst = append(dst, Factor{Lit: block[pr]})
			pr++
		}
	}
	return dst
}

// Package lz implements LZ77 factorization via suffix arrays, after
// "On the Use of Suffix Arrays for Memory-Efficient Lempel-Ziv Data
// Compression" (Ferreira, Oliveira, Figueiredo; arXiv:0903.4251): instead
// of hash chains or an online search tree, the factorizer builds the
// suffix array of a block once and derives each factor's longest previous
// match from the lexicographic neighbours with smaller text positions
// (PSV/NSV), computing match lengths only at factor start positions.
//
// The two candidates come from one left-to-right stack pass over the
// suffix array that stores them by text position, as in KKP3 (Kärkkäinen,
// Kempa and Puglisi, "Linear Time Lempel-Ziv Factorization: Simple, Fast,
// Small", CPM 2013), so a block needs 3 int32 of scratch per byte.
// Factorize and the stream's dense mode share one greedy pass over them.
//
// The suffix array is built by induced sorting (SA-IS: Nong, Zhang and
// Chan, 2009) in linear time, with one port of the Go standard library's
// index/suffixarray, generic over byte and int32 texts (sais.go), that
// sorts in the caller's scratch and never allocates. It replaced an O(n log n)
// prefix-doubling sort; on a 2-CPU host with Go 1.24.0,
// BenchmarkFactorize64K went from 26–35 to 8.9–11.5 ms/op.
//
// As a piper workload (see stream.go) the block factorizer is the
// interesting kind of pipeline stage for grain control: per-block cost is
// fine-grained but highly variable — a repetitive block yields a handful
// of long factors while an entropic one degenerates toward per-byte
// literals — which is the regime where batching's fixed-cost amortization
// and its adaptive backoff both matter.
package lz

// Factor is one LZ77 phrase: Len bytes copied from Dist bytes back, or a
// single literal when Len == 0.
type Factor struct {
	// Dist is the backwards distance to the previous occurrence
	// (1 <= Dist <= position) for a copy factor.
	Dist int32
	// Len is the copy length; 0 marks a literal factor.
	Len int32
	// Lit is the literal byte of a Len == 0 factor.
	Lit byte
}

// scratchLen is the factorizer's working-memory requirement for an
// n-byte block, in int32 elements: the layout blockIndex carves, sa and
// the 2n-entry candidate pairs. The suffix sort fills sa and borrows the
// pairs' slots as its tmp, which they cover for any n ≥ 256; below that
// the backing grows to give the sort its 512-entry minimum.
func scratchLen(n int) int { return n + max(2*n, saisMinTmp(n)) }

// Factorize computes the greedy LZ77 factorization of data: at each
// position the longest match against any earlier position (or a literal
// when no match exists). Factors never reference before the start of
// data, so a block factorizes independently of its neighbours. It is
// the dense block factorizer on data as one block, at copy length 1.
func Factorize(data []byte) []Factor {
	n := len(data)
	if n == 0 {
		return nil
	}
	return factorizeBlockDense(data, nil, 0, n, make([]int32, scratchLen(n)), make([]Factor, 0, 16+n/8), 1)
}

// blockIndex builds the in-block match candidates of data in backing,
// which must hold scratchLen(len(data)) int32 elements, and returns them
// by text position: pn[2p] and pn[2p+1] are the text positions of the
// suffixes nearest to p's in lexicographic order, before and after it,
// among those that start before p (its previous and next smaller values
// over the suffix array), -1 when there is none. They are the only two
// candidates for p's longest previous match: any other earlier suffix is
// lexicographically farther, hence shares a no-longer common prefix.
//
// Layout: sa in the first n slots, pn in the next 2n. The suffix sort
// writes sa and borrows everything after it as tmp; then one
// left-to-right pass over sa (KKP3: Kärkkäinen, Kempa and Puglisi, CPM
// 2013) keeps a stack of text positions increasing toward its top in the
// prefix of sa it has already read. A suffix popped by a smaller position
// p has p as its next smaller value and the entry beneath it as its
// previous one, so both land in its pair with one write each, in the
// cache line of the position a factor will later start at. sa is dead
// after the pass; pn is a view of backing.
func blockIndex(data []byte, backing []int32) (pn []int32) {
	n := len(data)
	sa := backing[:n:n]
	suffixArrayInto(data, sa, backing[n:scratchLen(n)])
	pn = backing[n : 3*n : 3*n]
	top := 0 // the stack is sa[:top]; top never passes the read index
	for _, p := range sa {
		for top > 0 && sa[top-1] > p {
			top--
			x := sa[top]
			pn[2*x+1] = p
			pn[2*x] = -1
			if top > 0 {
				pn[2*x] = sa[top-1]
			}
		}
		sa[top] = p
		top++
	}
	for top > 0 {
		top--
		x := sa[top]
		pn[2*x+1] = -1
		pn[2*x] = -1
		if top > 0 {
			pn[2*x] = sa[top-1]
		}
	}
	return pn
}

// Reconstruct expands factors into dst (which must be empty or nil) and
// returns the decoded block.
func Reconstruct(dst []byte, factors []Factor) []byte {
	for _, f := range factors {
		if f.Len == 0 {
			dst = append(dst, f.Lit)
			continue
		}
		// Byte-at-a-time on purpose: a factor may overlap its own output
		// (Dist < Len encodes a run), exactly as in LZ77.
		start := len(dst) - int(f.Dist)
		for k := 0; k < int(f.Len); k++ {
			dst = append(dst, dst[start+k])
		}
	}
	return dst
}

// suffixArrayInto builds the suffix array of data into sa by induced
// sorting (SA-IS, sais.go). len(sa) must equal len(data), which must fit
// an int32; tmp is working memory of at least saisMinTmp(len(data))
// entries whose contents neither matter on entry nor survive. Every
// recursion level sorts inside sa and tmp, so the sort allocates nothing.
func suffixArrayInto(data []byte, sa, tmp []int32) {
	if len(tmp) < saisMinTmp(len(data)) {
		panic("lz: suffix sort scratch too short")
	}
	clear(sa) // sais requires a zeroed sa
	sais(data, 256, sa, tmp)
}

// saisMinTmp is suffixArrayInto's tmp requirement for an n-byte text:
// the top level's frequency and bucket tables (2·256), and room for
// every recursion level's tables, which the n/2 bound on the number of
// LMS-substrings caps at n/2.
func saisMinTmp(n int) int { return max(2*256, n/2) }

// naiveFactorize is the quadratic reference factorizer used by the tests:
// at each position, scan every earlier start for the longest match.
// Exported to the package tests only through its lowercase name.
func naiveFactorize(data []byte) []Factor {
	n := len(data)
	var factors []Factor
	for p := 0; p < n; {
		bestLen, bestSrc := 0, -1
		for q := 0; q < p; q++ {
			l := 0
			for p+l < n && data[q+l] == data[p+l] {
				l++
			}
			if l > bestLen || (l == bestLen && l > 0 && q > bestSrc) {
				bestLen, bestSrc = l, q
			}
		}
		if bestLen == 0 {
			factors = append(factors, Factor{Lit: data[p]})
			p++
			continue
		}
		factors = append(factors, Factor{Dist: int32(p - bestSrc), Len: int32(bestLen)})
		p += bestLen
	}
	return factors
}

// Package lz implements LZ77 factorization via suffix arrays, after
// "On the Use of Suffix Arrays for Memory-Efficient Lempel-Ziv Data
// Compression" (Ferreira, Oliveira, Figueiredo; arXiv:0903.4251): instead
// of hash chains or an online search tree, the factorizer builds the
// suffix array of a block once and derives each factor's longest previous
// match from the lexicographic neighbours with smaller text positions
// (PSV/NSV), computing match lengths only at factor start positions.
//
// The suffix array is built by induced sorting (SA-IS: Nong, Zhang and
// Chan, 2009) in linear time, with a port of the int32 path of the Go
// standard library's index/suffixarray (sais.go) that sorts in the
// caller's scratch and never allocates. It replaced an O(n log n)
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
// n-byte block, in int32 elements: the layout blockIndex carves, five
// n-sized arrays (sa, isa, psv, nsv and the ANSV stack). The suffix sort
// fills sa and borrows the other four as its tmp, which they outsize
// for any n ≥ 128; below that the backing grows to give the sort its
// 512-entry minimum.
func scratchLen(n int) int { return n + max(4*n, saisMinTmp(n)) }

// Factorize computes the greedy LZ77 factorization of data: at each
// position the longest match against any earlier position (or a literal
// when no match exists). Factors never reference before the start of
// data, so a block factorizes independently of its neighbours.
func Factorize(data []byte) []Factor {
	n := len(data)
	if n == 0 {
		return nil
	}
	isa, psv, nsv := blockIndex(data, make([]int32, scratchLen(n)))
	dst := make([]Factor, 0, 16+n/8)

	// Greedy pass: match lengths are computed by direct comparison, but
	// only at factor start positions, so the total comparison work is
	// bounded by n plus the number of factors — the memory-efficient
	// trade the paper makes against storing full LCP/LPF arrays.
	match := func(p int, q int32) int32 {
		if q < 0 {
			return 0
		}
		var l int32
		for int(l) < n-p && data[int(q)+int(l)] == data[p+int(l)] {
			l++
		}
		return l
	}
	for p := 0; p < n; {
		r := isa[p]
		q1, q2 := psv[r], nsv[r]
		l1, l2 := match(p, q1), match(p, q2)
		src, l := q1, l1
		if l2 > l1 || (l2 == l1 && q2 > q1) {
			// Prefer the longer match; on ties the nearer source (larger
			// position → smaller distance) encodes tighter.
			src, l = q2, l2
		}
		if l == 0 {
			dst = append(dst, Factor{Lit: data[p]})
			p++
			continue
		}
		dst = append(dst, Factor{Dist: int32(p) - src, Len: l})
		p += int(l)
	}
	return dst
}

// blockIndex builds the in-block match candidates of data in backing,
// which must hold scratchLen(len(data)) int32 elements: isa[p] is the
// lexicographic rank of the suffix at p, and psv[r]/nsv[r] are the text
// positions of the nearest smaller-positioned suffixes before and after
// rank r (ansvInto), -1 when there is none. Layout, in n-sized slots:
// sa, isa, psv, nsv, stack. The suffix sort writes sa and uses
// everything after it as tmp; the ANSV sweep then reuses the last slot
// as its stack. All three results are views of backing.
func blockIndex(data []byte, backing []int32) (isa, psv, nsv []int32) {
	n := len(data)
	sa := backing[:n:n]
	suffixArrayInto(data, sa, backing[n:scratchLen(n)])
	isa = backing[n : 2*n : 2*n]
	psv = backing[2*n : 3*n : 3*n]
	nsv = backing[3*n : 4*n : 4*n]
	for r, p := range sa {
		isa[p] = int32(r)
	}
	ansvInto(sa, psv, nsv, backing[4*n:5*n:5*n])
	return isa, psv, nsv
}

// ansvInto fills psv[r]/nsv[r] with, for the suffix ranked r, the text
// position of the nearest lexicographic neighbour (previous/next rank)
// whose text position is smaller — the only two candidates for the
// longest previous match of SA[r] (any other earlier suffix is
// lexicographically farther, hence shares a no-longer common prefix).
// Computed with the classic all-nearest-smaller-values stack sweep; ext
// is stack storage of at least len(sa) elements.
func ansvInto(sa, psv, nsv, ext []int32) {
	n := len(sa)
	stack := ext[:0]
	for r := 0; r < n; r++ {
		p := sa[r]
		for len(stack) > 0 && stack[len(stack)-1] > p {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			psv[r] = stack[len(stack)-1]
		} else {
			psv[r] = -1
		}
		stack = append(stack, p)
	}
	stack = stack[:0]
	for r := n - 1; r >= 0; r-- {
		p := sa[r]
		for len(stack) > 0 && stack[len(stack)-1] > p {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			nsv[r] = stack[len(stack)-1]
		} else {
			nsv[r] = -1
		}
		stack = append(stack, p)
	}
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
	clear(sa) // sais_8_32 requires a zeroed sa
	sais_8_32(data, 256, sa, tmp)
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

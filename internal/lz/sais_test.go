package lz

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"testing"

	"piper/internal/workload"
)

// naiveSuffixArray is the reference suffix sort: every suffix compared
// byte-wise by sort.Slice.
func naiveSuffixArray(data []byte) []int32 {
	sa := make([]int32, len(data))
	for i := range sa {
		sa[i] = int32(i)
	}
	sort.Slice(sa, func(a, b int) bool { return bytes.Compare(data[sa[a]:], data[sa[b]:]) < 0 })
	return sa
}

// dirtyScratch returns a scratchLen(n) backing prefilled with junk,
// because arena scratch arrives dirty.
func dirtyScratch(n int) []int32 {
	backing := make([]int32, scratchLen(n))
	for i := range backing {
		backing[i] = int32(i*7919) - 1
	}
	return backing
}

// sortOnScratch runs suffixArrayInto the way blockIndex does: sa and tmp
// carved from one dirty scratchLen backing.
func sortOnScratch(data []byte) []int32 {
	n := len(data)
	backing := dirtyScratch(n)
	suffixArrayInto(data, backing[:n:n], backing[n:])
	return backing[:n:n]
}

// checkBlockIndex compares blockIndex's candidate pair at every text
// position of data with its definition, scanned from the reference
// suffix array sa: pn[2p] is the text position at the nearest rank
// before p's whose text position is smaller than p, pn[2p+1] the one at
// the nearest such rank after it, -1 where there is none.
func checkBlockIndex(t *testing.T, name string, data []byte, sa []int32) {
	t.Helper()
	n := len(data)
	pn := blockIndex(data, dirtyScratch(n))
	if len(pn) != 2*n {
		t.Fatalf("%s: %d candidate entries, want %d", name, len(pn), 2*n)
	}
	for r, p := range sa {
		want := [2]int32{-1, -1}
		for l := r - 1; l >= 0; l-- {
			if sa[l] < p {
				want[0] = sa[l]
				break
			}
		}
		for h := r + 1; h < n; h++ {
			if sa[h] < p {
				want[1] = sa[h]
				break
			}
		}
		if got := [2]int32{pn[2*p], pn[2*p+1]}; got != want {
			t.Fatalf("%s: candidates of position %d (rank %d) = %v, want psv/nsv %v", name, p, r, got, want)
		}
	}
}

// saisLengths are the text lengths the differential test sorts: the
// trivial cases, both sides of the n < 128 scratch floor and of the
// 512-entry top-level table, and one multi-level text.
var saisLengths = []int{0, 1, 2, 3, 127, 128, 511, 512, 4096}

// saisText returns the n-byte text of the named shape.
func saisText(shape string, n int) []byte {
	b := make([]byte, n)
	rng := workload.NewRNG(uint64(n)*131 + uint64(len(shape)))
	switch shape {
	case "all-equal":
		for i := range b {
			b[i] = 'a'
		}
	case "period-2":
		for i := range b {
			b[i] = "ab"[i%2]
		}
	case "period-3":
		for i := range b {
			b[i] = "abc"[i%3]
		}
	case "fibonacci":
		// The Fibonacci word: s(k) = s(k-1) s(k-2) over {a, b}.
		prev, cur := []byte("b"), []byte("a")
		for len(cur) < n {
			prev, cur = cur, append(append([]byte(nil), cur...), prev...)
		}
		copy(b, cur)
	case "high-low":
		// Strictly alternating low and high bytes: every other position
		// starts an LMS-substring, the most SA-IS allows (n/2). The high
		// byte at odd i is the 2-adic valuation of i+1, so the names of
		// the LMS-substrings alternate the same way one level down, and
		// every level recurses on half its text.
		for i := range b {
			b[i] = byte(bits.TrailingZeros(uint(i + 1)))
		}
	case "alpha-2", "alpha-4", "alpha-256":
		k := map[string]int{"alpha-2": 2, "alpha-4": 4, "alpha-256": 256}[shape]
		for i := range b {
			b[i] = byte(rng.Intn(k))
		}
	case "text":
		copy(b, workload.TextStream(5, max(n, 1), 256, 0.4))
	default:
		panic("unknown text shape " + shape)
	}
	return b
}

var saisShapes = []string{"all-equal", "period-2", "period-3", "fibonacci", "high-low", "alpha-2", "alpha-4", "alpha-256", "text"}

// TestSuffixArrayMatchesNaive: the induced sort must equal the reference
// sort on every shape and length, periodic texts (which recurse on
// repeated names) and the alternating text (which recurses deepest)
// included.
func TestSuffixArrayMatchesNaive(t *testing.T) {
	for _, shape := range saisShapes {
		for _, n := range saisLengths {
			data := saisText(shape, n)
			got, want := sortOnScratch(data), naiveSuffixArray(data)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/n=%d: sa[%d] = %d, reference %d", shape, n, i, got[i], want[i])
				}
			}
		}
	}
}

// FuzzSuffixArray checks the induced sort against the reference on
// arbitrary texts, seeded with the differential test's inputs. Texts are
// cut at 8 KiB to keep the reference sort (quadratic on periodic input)
// fast.
func FuzzSuffixArray(f *testing.F) {
	for _, shape := range saisShapes {
		for _, n := range saisLengths {
			f.Add(saisText(shape, n))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 8<<10)]
		got, want := sortOnScratch(data), naiveSuffixArray(data)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: sa[%d] = %d, reference %d", len(data), i, got[i], want[i])
			}
		}
		checkBlockIndex(t, fmt.Sprintf("n=%d", len(data)), data, want)
	})
}

// TestBlockIndexMatchesDefinition: the one-pass candidate pairs must
// equal their definition over the reference suffix array on every shape
// and length, plus both sides of n = 256, where the pairs' 2n slots stop
// covering the sort's 512-entry minimum tmp.
func TestBlockIndexMatchesDefinition(t *testing.T) {
	for _, shape := range saisShapes {
		for _, n := range append([]int{1, 2, 255, 256, 257}, saisLengths...) {
			data := saisText(shape, n)
			checkBlockIndex(t, fmt.Sprintf("%s/n=%d", shape, n), data, naiveSuffixArray(data))
		}
	}
}

// TestSuffixArrayNoAllocs: the sort, and blockIndex around it, run
// entirely in caller scratch at every size, including below the 256-byte
// floor where the scratch grows to give the sort its 512-entry tables,
// and on the alternating text, whose recursion needs the most tmp. From
// 256 bytes up the backing is exactly 3n: sa and the candidate pairs.
func TestSuffixArrayNoAllocs(t *testing.T) {
	if workload.RaceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	for _, n := range []int{1, 100, 127, 128, 255, 256, 4096, 128 << 10} {
		for _, shape := range []string{"text", "high-low", "alpha-256"} {
			data := saisText(shape, n)
			backing := make([]int32, scratchLen(n))
			if n >= 256 && len(backing) != 3*n {
				t.Fatalf("n=%d: scratch of %d entries, want 3n = %d", n, len(backing), 3*n)
			}
			allocs := testing.AllocsPerRun(3, func() { suffixArrayInto(data, backing[:n:n], backing[n:]) })
			if allocs != 0 {
				t.Errorf("%s/n=%d: %.0f allocations per sort, want 0", shape, n, allocs)
			}
			allocs = testing.AllocsPerRun(3, func() { blockIndex(data, backing) })
			if allocs != 0 {
				t.Errorf("%s/n=%d: %.0f allocations per blockIndex, want 0", shape, n, allocs)
			}
		}
	}
}

// TestSAISTextTypesAndTables calls both instantiations of sais directly,
// each with both table layouts: two tables (len(tmp) ≥ 2·textMax, the
// frequencies and the buckets) and one (textMax ≤ len(tmp) < 2·textMax,
// the buckets only, into which the frequencies are recomputed each time
// they are needed). suffixArrayInto always hands the sort two tables, so
// only this test reaches the one-table branch. The byte texts are every
// saisShapes shape; the int32 texts, which the sort otherwise sees only
// as recursion levels, range over alphabets on both sides of a byte's.
func TestSAISTextTypesAndTables(t *testing.T) {
	for _, n := range saisLengths {
		for _, shape := range saisShapes {
			checkSAIS(t, fmt.Sprintf("byte/%s/n=%d", shape, n), saisText(shape, n), 256)
		}
		for _, k := range []int{1, 2, 255, 256, 257, 4096} {
			checkSAIS(t, fmt.Sprintf("int32/alphabet=%d/n=%d", k, n), saisInt32Text(n, k), k)
		}
	}
}

// saisInt32Text returns an n-symbol text over [0, k) that holds k-1: a
// period-13 pattern with one symbol in 16 replaced at random, so that
// LMS-substrings repeat and the sort recurses over large alphabets too.
func saisInt32Text(n, k int) []int32 {
	rng := workload.NewRNG(uint64(n)*977 + uint64(k))
	var pattern [13]int32
	for i := range pattern {
		pattern[i] = int32(rng.Intn(k))
	}
	text := make([]int32, n)
	for i := range text {
		text[i] = pattern[i%len(pattern)]
		if rng.Intn(16) == 0 {
			text[i] = int32(rng.Intn(k))
		}
	}
	if n > 0 {
		text[n/2] = int32(k - 1)
	}
	return text
}

// checkSAIS sorts text over an alphabet of the given size with a
// two-table and with a one-table tmp, each prefilled with junk, and
// compares both with a sort.Slice reference. Every layout also holds
// the n/2 entries the recursion needs, so where n/2 exceeds the
// alphabet, the one-table call raises textMax to n/2: still a bound on
// every symbol, so the call is a legal one.
func checkSAIS[T byte | int32](t *testing.T, name string, text []T, alphabet int) {
	t.Helper()
	n := len(text)
	want := make([]int32, n)
	for i := range want {
		want[i] = int32(i)
	}
	sort.Slice(want, func(a, b int) bool { return slices.Compare(text[want[a]:], text[want[b]:]) < 0 })

	oneMax := max(alphabet, n/2)
	for _, c := range []struct {
		layout          string
		textMax, tmpLen int
	}{
		{"two tables", alphabet, max(2*alphabet, n/2)},
		{"one table", oneMax, oneMax},
	} {
		sa := make([]int32, n)
		tmp := make([]int32, c.tmpLen)
		for i := range tmp {
			tmp[i] = int32(i*7919) - 1
		}
		sais(text, c.textMax, sa, tmp)
		if !slices.Equal(sa, want) {
			i := 0
			for sa[i] == want[i] {
				i++
			}
			t.Fatalf("%s, %s: sa[%d] = %d, reference %d", name, c.layout, i, sa[i], want[i])
		}
	}
}

// BenchmarkSuffixArray128K times the suffix sort alone on one
// DefaultStreamBlockSize block of workload.TextStream, sorting in a
// scratchLen backing allocated outside the timer, as blockIndex does.
func BenchmarkSuffixArray128K(b *testing.B) {
	n := DefaultStreamBlockSize
	data := workload.TextStream(77, n, 4096, 0.35)
	backing := make([]int32, scratchLen(n))
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suffixArrayInto(data, backing[:n:n], backing[n:])
	}
}

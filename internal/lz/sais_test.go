package lz

import (
	"bytes"
	"math/bits"
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

// sortOnScratch runs suffixArrayInto the way blockIndex does: sa and tmp
// carved from one scratchLen backing, prefilled with junk because arena
// scratch arrives dirty.
func sortOnScratch(data []byte) []int32 {
	n := len(data)
	backing := make([]int32, scratchLen(n))
	for i := range backing {
		backing[i] = int32(i*7919) - 1
	}
	suffixArrayInto(data, backing[:n:n], backing[n:])
	return backing[:n:n]
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
	})
}

// TestSuffixArrayNoAllocs: the sort runs entirely in caller scratch at
// every size, including below the 128-byte floor where the scratch grows
// to give the sort its 512-entry tables, and on the alternating text,
// whose recursion needs the most tmp.
func TestSuffixArrayNoAllocs(t *testing.T) {
	if workload.RaceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	for _, n := range []int{1, 100, 127, 128, 4096, 128 << 10} {
		for _, shape := range []string{"text", "high-low", "alpha-256"} {
			data := saisText(shape, n)
			backing := make([]int32, scratchLen(n))
			allocs := testing.AllocsPerRun(3, func() { suffixArrayInto(data, backing[:n:n], backing[n:]) })
			if allocs != 0 {
				t.Errorf("%s/n=%d: %.0f allocations per sort, want 0", shape, n, allocs)
			}
		}
	}
}

package lz

import (
	"bytes"
	"testing"

	"piper/internal/workload"
)

// TestFactorizeMatchesNaive: the suffix-array factorizer must produce the
// same greedy phrase boundaries (position, length) as the quadratic
// reference. Distances may differ when several previous occurrences tie
// on length, so the comparison is on boundaries plus a round-trip check.
func TestFactorizeMatchesNaive(t *testing.T) {
	rng := workload.NewRNG(42)
	cases := [][]byte{
		nil,
		[]byte("a"),
		[]byte("aaaaaaa"),
		[]byte("abababab"),
		[]byte("abracadabra"),
		[]byte("mississippi"),
		bytes.Repeat([]byte("abc"), 40),
	}
	for c := 0; c < 30; c++ {
		n := 1 + rng.Intn(200)
		alpha := 1 + rng.Intn(4)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(alpha))
		}
		cases = append(cases, b)
	}
	for ci, data := range cases {
		got := Factorize(data)
		want := naiveFactorize(data)
		if len(got) != len(want) {
			t.Fatalf("case %d (%q): %d factors, naive %d", ci, truncate(data), len(got), len(want))
		}
		for k := range got {
			if got[k].Len != want[k].Len || (got[k].Len == 0 && got[k].Lit != want[k].Lit) {
				t.Fatalf("case %d (%q) factor %d: got %+v, naive %+v", ci, truncate(data), k, got[k], want[k])
			}
		}
		if rec := Reconstruct(nil, got); !bytes.Equal(rec, data) {
			t.Fatalf("case %d: reconstruction mismatch", ci)
		}
	}
}

// TestFactorDistancesValid: every copy factor must point inside the
// already-produced prefix.
func TestFactorDistancesValid(t *testing.T) {
	data := workload.TextStream(7, 1<<15, 1024, 0.4)
	pos := int32(0)
	for _, f := range Factorize(data) {
		if f.Len == 0 {
			pos++
			continue
		}
		if f.Dist < 1 || f.Dist > pos {
			t.Fatalf("factor at %d has invalid distance %d", pos, f.Dist)
		}
		pos += f.Len
	}
	if int(pos) != len(data) {
		t.Fatalf("factors cover %d bytes, want %d", pos, len(data))
	}
}

func truncate(b []byte) []byte {
	if len(b) > 24 {
		return b[:24]
	}
	return b
}

func BenchmarkFactorize64K(b *testing.B) {
	data := workload.TextStream(77, 64<<10, 4096, 0.35)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Factorize(data)
	}
}

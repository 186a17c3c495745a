package dedup

import (
	"bytes"
	"testing"

	"piper"
)

func TestRestorePiperRoundTrip(t *testing.T) {
	data := testData(21, 512<<10, 0.4)
	var arch bytes.Buffer
	if err := CompressSerial(data, &arch); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		eng := piper.NewEngine(piper.Workers(p))
		got, err := RestorePiper(eng, 4*p, arch.Bytes())
		eng.Close()
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("P=%d: parallel restore mismatch", p)
		}
	}
}

func TestRestorePiperMatchesSerialRestore(t *testing.T) {
	data := testData(22, 256<<10, 0.6)
	var arch bytes.Buffer
	if err := CompressSerial(data, &arch); err != nil {
		t.Fatal(err)
	}
	want, err := Restore(arch.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	eng := piper.NewEngine(piper.Workers(4))
	defer eng.Close()
	got, err := RestorePiper(eng, 16, arch.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("parallel and serial restore differ")
	}
}

func TestRestorePiperRejectsCorruption(t *testing.T) {
	data := testData(23, 128<<10, 0.2)
	var arch bytes.Buffer
	if err := CompressSerial(data, &arch); err != nil {
		t.Fatal(err)
	}
	eng := piper.NewEngine(piper.Workers(2))
	defer eng.Close()
	if _, err := RestorePiper(eng, 8, []byte("junkjunkjunk")); err == nil {
		t.Error("bad magic accepted")
	}
	b := append([]byte{}, arch.Bytes()...)
	b[len(b)/2] ^= 0x55
	if restored, err := RestorePiper(eng, 8, b); err == nil && bytes.Equal(restored, data) {
		t.Error("corrupted archive restored to identical data")
	}
	if _, err := RestorePiper(eng, 8, arch.Bytes()[:20]); err == nil {
		t.Error("truncated archive accepted")
	}
}

func TestParseRecordsCounts(t *testing.T) {
	block := testData(24, 32<<10, 0)
	data := bytes.Repeat(block, 4) // heavy duplication
	var arch bytes.Buffer
	if err := CompressSerial(data, &arch); err != nil {
		t.Fatal(err)
	}
	recs, hint, err := parseRecords(arch.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if hint != len(data) { // every chunk is at most maxChunk long
		t.Fatalf("size hint = %d, want %d", hint, len(data))
	}
	var uniq, refs int
	for _, r := range recs {
		if r.ref == nil {
			uniq++
		} else {
			refs++
		}
	}
	if refs == 0 {
		t.Fatal("expected duplicate references in a repeated stream")
	}
	if uniq == 0 {
		t.Fatal("expected unique chunks")
	}
}

package dedup

import (
	"bytes"
	"compress/flate"
	"crypto/sha1"
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"testing"

	"piper"
)

// archiveOf is the magic followed by the given records.
func archiveOf(records ...[]byte) []byte {
	return bytes.Join(append([][]byte{archiveMagic}, records...), nil)
}

// uniqueRec encodes a unique record field by field, so its lengths can lie.
func uniqueRec(rawLen, compLen uint64, comp []byte, sum [sha1.Size]byte) []byte {
	b := binary.AppendUvarint([]byte{recUnique}, rawLen)
	b = binary.AppendUvarint(b, compLen)
	return append(append(b, comp...), sum[:]...)
}

func endRec(total uint64) []byte { return binary.AppendUvarint([]byte{recEnd}, total) }

// bomb is a deflate stream of 64 MiB of zeros (about 64 KiB long).
var bomb = sync.OnceValue(func() []byte {
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, flate.BestCompression)
	zeros := make([]byte, 64<<10)
	for i := 0; i < 1<<10; i++ {
		fw.Write(zeros)
	}
	fw.Close()
	return buf.Bytes()
})

type hostileArchive struct {
	name    string
	archive []byte
}

// hostileArchives are well-framed archives whose recorded lengths lie.
// Each of the first four made a reader panic before both readers went
// through parseRecords and unpack; the fifth made them inflate all of its
// 64 MiB before the SHA-1 check rejected it.
func hostileArchives() []hostileArchive {
	hello := []byte("hello")
	comp := Compress(hello)
	sum := sha1.Sum(hello)
	valid := uniqueRec(uint64(len(hello)), uint64(len(comp)), comp, sum)
	filler := make([]byte, sha1.Size+8)
	return []hostileArchive{
		{"compLen 2^62", archiveOf(uniqueRec(5, 1<<62, filler, sum), endRec(5))},
		{"compLen 2^64-1", archiveOf(uniqueRec(5, math.MaxUint64, filler, sum), endRec(5))},
		{"rawLen 2^62", archiveOf(uniqueRec(1<<62, uint64(len(comp)), comp, sum), endRec(1<<62))},
		{"total 2^63+5", archiveOf(valid, endRec(1<<63+5))},
		{"rawLen 1, inflates to 64 MiB", archiveOf(uniqueRec(1, uint64(len(bomb())), bomb(), sha1.Sum([]byte{0})), endRec(1))},
		// A chunk must inflate to exactly its recorded length, even when
		// the end record agrees with the lie.
		{"rawLen 4 of 5", archiveOf(uniqueRec(4, uint64(len(comp)), comp, sum), endRec(4))},
		{"rawLen 6 of 5", archiveOf(uniqueRec(6, uint64(len(comp)), comp, sum), endRec(6))},
	}
}

// allocated is how many bytes f allocates, by the runtime's counter.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestRestoreRejectsHostileArchives(t *testing.T) {
	eng := piper.NewEngine(piper.Workers(2))
	defer eng.Close()
	for _, h := range hostileArchives() {
		var serr, perr error
		sBytes := allocated(func() { _, serr = Restore(h.archive) })
		pBytes := allocated(func() { _, perr = RestorePiper(eng, 4, h.archive) })
		t.Logf("%s: Restore %v (%d B allocated); RestorePiper %v (%d B)", h.name, serr, sBytes, perr, pBytes)
		if serr == nil || perr == nil {
			t.Errorf("%s: accepted (Restore %v, RestorePiper %v)", h.name, serr, perr)
		}
		if sBytes >= 1<<20 || pBytes >= 1<<20 {
			t.Errorf("%s: Restore allocated %d B, RestorePiper %d B, want < 1 MiB each", h.name, sBytes, pBytes)
		}
	}
}

// FuzzRestore: on any bytes neither reader panics, and both return an
// error or both return the same stream.
func FuzzRestore(f *testing.F) {
	var arch bytes.Buffer
	if err := CompressSerial(bytes.Repeat(testData(25, 6<<10, 0), 3), &arch); err != nil {
		f.Fatal(err)
	}
	f.Add(arch.Bytes())
	f.Add(archiveOf(endRec(0)))
	for _, h := range hostileArchives() {
		f.Add(h.archive)
	}
	eng := piper.NewEngine(piper.Workers(2))
	f.Cleanup(eng.Close)
	f.Fuzz(func(t *testing.T, archive []byte) {
		want, serr := Restore(archive)
		got, perr := RestorePiper(eng, 4, archive)
		if (serr == nil) != (perr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("readers disagree: Restore (%d B, %v), RestorePiper (%d B, %v)", len(want), serr, len(got), perr)
		}
	})
}

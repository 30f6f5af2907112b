package bam

import (
	"bytes"
	"encoding/binary"
	"testing"

	"persona/internal/agd"
	"persona/internal/formats/bgzf"
	"persona/internal/formats/sam"
)

// fuzzSeedBAM is a small, valid BAM from this package's writer.
func fuzzSeedBAM(f *testing.F) []byte {
	f.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, []agd.RefSeq{{Name: "chr1", Length: 1000}, {Name: "chr2", Length: 500}}, "coordinate")
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []sam.Record{
		{Name: "r1", Ref: "chr1", Pos: 100, MapQ: 60, Cigar: "4M", RNext: "*", Seq: "ACGT", Qual: "IIII"},
		{Name: "r2", Flags: agd.FlagUnmapped, Ref: "*", Cigar: "*", RNext: "*", Seq: "GGNGG", Qual: "!!!!!"},
		{Name: "r3", Flags: agd.FlagPaired | agd.FlagReverse, Ref: "chr2", Pos: 7, MapQ: 13, Cigar: "2M1I2M", RNext: "=", PNext: 200, TLen: -150, Seq: "TTTAA", Qual: "ABCDE"},
	} {
		if err := w.Write(&r); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// bgzfOf wraps raw BAM bytes in BGZF, so a seed can corrupt the
// decompressed layer directly.
func bgzfOf(f *testing.F, raw []byte) []byte {
	f.Helper()
	var buf bytes.Buffer
	z := bgzf.NewWriter(&buf)
	if _, err := z.Write(raw); err != nil {
		f.Fatal(err)
	}
	if err := z.Close(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzBAMReader feeds arbitrary bytes to the reader: it must return an
// error or records, never panic, and never size a buffer from an untrusted
// length field before the bytes arrive.
func FuzzBAMReader(f *testing.F) {
	valid := fuzzSeedBAM(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	// Lengths claiming 4 GiB: header text, reference count, record size.
	huge := binary.LittleEndian.AppendUint32(nil, 0xffffffff)
	f.Add(bgzfOf(f, append([]byte("BAM\x01"), huge...)))
	f.Add(bgzfOf(f, append(append([]byte("BAM\x01"), 0, 0, 0, 0), huge...)))
	f.Add(bgzfOf(f, append(append([]byte("BAM\x01"), 0, 0, 0, 0, 0, 0, 0, 0), huge...)))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for r.Scan() {
			rec := r.Record()
			if len(rec.Seq) != len(rec.Qual) {
				t.Fatalf("record %q: seq %d bases, qual %d", rec.Name, len(rec.Seq), len(rec.Qual))
			}
		}
	})
}

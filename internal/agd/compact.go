package agd

import (
	"encoding/binary"
	"fmt"
	"slices"

	"persona/internal/genome"
)

// Base compaction (§3): base characters are stored 3 bits each, 21 bases to
// a 64-bit word (63 bits used, top bit spare). A compacted record is the
// uvarint base count followed by the packed little-endian words.

// basesPerWord is the number of 3-bit bases packed in one 64-bit word.
const basesPerWord = 21

// CompactBases appends the compacted encoding of bases to dst and returns
// the extended slice.
func CompactBases(dst, bases []byte) []byte {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(bases)))
	dst = append(dst, hdr[:n]...)
	for i := 0; i < len(bases); i += basesPerWord {
		end := i + basesPerWord
		if end > len(bases) {
			end = len(bases)
		}
		var word uint64
		for j, b := range bases[i:end] {
			word |= uint64(genome.Code(b)) << (3 * uint(j))
		}
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], word)
		dst = append(dst, w[:]...)
	}
	return dst
}

// ExpandBases decodes one compacted record from src, appending the base
// letters to dst. It returns the extended dst and the number of source bytes
// consumed.
func ExpandBases(dst, src []byte) ([]byte, int, error) {
	count, n := binary.Uvarint(src)
	if n <= 0 {
		return dst, 0, fmt.Errorf("%w: bad base count varint", ErrCorrupt)
	}
	// Each word holds at most basesPerWord bases, so a count beyond that
	// bound is corrupt (and would overflow the size arithmetic below).
	if count > uint64(len(src))*basesPerWord {
		return dst, 0, fmt.Errorf("%w: base count %d exceeds record size", ErrCorrupt, count)
	}
	words := (int(count) + basesPerWord - 1) / basesPerWord
	need := n + words*8
	if len(src) < need {
		return dst, 0, fmt.Errorf("%w: compacted record truncated (need %d bytes, have %d)", ErrCorrupt, need, len(src))
	}
	start := len(dst)
	dst = slices.Grow(dst, int(count))[:start+int(count)]
	out := dst[start:]
	for w, off := 0, n; w < words; w, off = w+1, off+8 {
		word := binary.LittleEndian.Uint64(src[off : off+8])
		chunk := out[w*basesPerWord : min(len(out), (w+1)*basesPerWord)]
		for j := range chunk {
			chunk[j] = genome.Letter(uint8(word >> (3 * uint(j)) & 0x7))
		}
	}
	return dst, need, nil
}

// CompactedSize returns the encoded size in bytes of a record of n bases.
func CompactedSize(n int) int {
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(n))
	return h + (n+basesPerWord-1)/basesPerWord*8
}

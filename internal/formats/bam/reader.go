package bam

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"persona/internal/agd"
	"persona/internal/align"
	"persona/internal/formats/bgzf"
	"persona/internal/formats/sam"
)

// Reader parses a BAM file. Every length field is untrusted: buffers grow
// with the bytes that actually arrive, never up front from a length, so a
// corrupt 32-bit field cannot ask for gigabytes.
type Reader struct {
	r     *bufio.Reader
	refs  []agd.RefSeq
	text  string
	block bytes.Buffer // reused record buffer
	rec   sam.Record
	err   error
}

// NewReader parses the BAM header of the BGZF stream in r.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(bgzf.NewReader(r), 1<<16)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("bam: reading magic: %w", err)
	}
	for i, b := range bamMagic {
		if magic[i] != b {
			return nil, fmt.Errorf("bam: bad magic %q", magic)
		}
	}
	var buf bytes.Buffer
	text, err := readField(&buf, br)
	if err != nil {
		return nil, fmt.Errorf("bam: reading header text: %w", err)
	}
	rd := &Reader{r: br, text: string(text)}
	nRef, err := read32(br)
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nRef; i++ {
		name, err := readField(&buf, br)
		if err != nil {
			return nil, fmt.Errorf("bam: reading reference %d: %w", i, err)
		}
		refLen, err := read32(br)
		if err != nil {
			return nil, err
		}
		rd.refs = append(rd.refs, agd.RefSeq{Name: strings.TrimRight(string(name), "\x00"), Length: int64(refLen)})
	}
	return rd, nil
}

func read32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// readField reads a 32-bit length, then that many bytes into buf (reset
// first), copying in pieces so memory follows the bytes that arrive. It
// returns io.EOF only when the stream ends cleanly before the length, and
// io.ErrUnexpectedEOF when it ends anywhere inside the field.
func readField(buf *bytes.Buffer, r io.Reader) ([]byte, error) {
	n, err := read32(r)
	if err != nil {
		return nil, err
	}
	buf.Reset()
	if _, err := io.CopyN(buf, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf.Bytes(), nil
}

// Refs returns the reference dictionary.
func (r *Reader) Refs() []agd.RefSeq { return r.refs }

// HeaderText returns the SAM text header embedded in the BAM header.
func (r *Reader) HeaderText() string { return r.text }

// Scan advances to the next alignment record.
func (r *Reader) Scan() bool {
	if r.err != nil {
		return false
	}
	block, err := readField(&r.block, r.r)
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			r.err = fmt.Errorf("bam: truncated record: %w", err)
		} else if err != io.EOF {
			r.err = err
		}
		return false
	}
	rec, err := parseRecord(block, r.refs)
	if err != nil {
		r.err = err
		return false
	}
	r.rec = rec
	return true
}

// Record returns the current record.
func (r *Reader) Record() sam.Record { return r.rec }

// Err returns the first error encountered (nil at clean EOF).
func (r *Reader) Err() error { return r.err }

func parseRecord(b []byte, refs []agd.RefSeq) (sam.Record, error) {
	var rec sam.Record
	if len(b) < 32 {
		return rec, fmt.Errorf("bam: record too short (%d bytes)", len(b))
	}
	le := binary.LittleEndian
	refID := int32(le.Uint32(b[0:4]))
	pos := int32(le.Uint32(b[4:8]))
	lReadName := int(b[8])
	rec.MapQ = b[9]
	nCigar := int(le.Uint16(b[12:14]))
	rec.Flags = le.Uint16(b[14:16])
	lSeq := int(le.Uint32(b[16:20]))
	nextRefID := int32(le.Uint32(b[20:24]))
	nextPos := int32(le.Uint32(b[24:28]))
	rec.TLen = int32(le.Uint32(b[28:32]))

	refName := func(id int32) string {
		if id < 0 || int(id) >= len(refs) {
			return "*"
		}
		return refs[id].Name
	}
	rec.Ref = refName(refID)
	rec.Pos = int64(pos) + 1
	if rec.Ref == "*" {
		rec.Pos = 0
	}
	rec.RNext = refName(nextRefID)
	rec.PNext = int64(nextPos) + 1
	if rec.RNext == "*" {
		rec.PNext = 0
	} else if rec.RNext == rec.Ref && rec.Ref != "*" {
		rec.RNext = "="
	}

	off := 32
	if off+lReadName > len(b) {
		return rec, fmt.Errorf("bam: record name overruns block")
	}
	rec.Name = strings.TrimRight(string(b[off:off+lReadName]), "\x00")
	off += lReadName

	if off+nCigar*4 > len(b) {
		return rec, fmt.Errorf("bam: cigar overruns block")
	}
	var cigar align.Cigar
	for i := 0; i < nCigar; i++ {
		v := le.Uint32(b[off : off+4])
		off += 4
		op, err := align.CigarOpFromBAM(int(v & 0xf))
		if err != nil {
			return rec, err
		}
		cigar = append(cigar, align.CigarElem{Len: int(v >> 4), Op: op})
	}
	rec.Cigar = cigar.String()
	if nCigar == 0 {
		rec.Cigar = "*"
	}

	seqBytes := (lSeq + 1) / 2
	if off+seqBytes+lSeq > len(b) {
		return rec, fmt.Errorf("bam: seq/qual overruns block")
	}
	seq := make([]byte, lSeq)
	for i := 0; i < lSeq; i++ {
		nib := b[off+i/2]
		if i%2 == 0 {
			nib >>= 4
		}
		seq[i] = nibbleSeq(nib & 0xf)
	}
	off += seqBytes
	rec.Seq = string(seq)
	qual := make([]byte, lSeq)
	for i := 0; i < lSeq; i++ {
		qual[i] = b[off+i] + '!'
	}
	rec.Qual = string(qual)
	return rec, nil
}

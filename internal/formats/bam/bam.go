// Package bam reads and writes the BAM binary alignment format: a BGZF
// stream carrying a binary header and alignment records. Persona produces
// BAM for compatibility with unported tools (§4.4; export throughput is the
// §5.7 experiment).
package bam

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"persona/internal/agd"
	"persona/internal/align"
	"persona/internal/dataflow"
	"persona/internal/formats/bgzf"
	"persona/internal/formats/sam"
)

var bamMagic = []byte{'B', 'A', 'M', 1}

// seqNibbleTab maps a base letter to BAM's 4-bit code: A/C/G/T (either
// case) to 1/2/4/8, anything else to 15 (N).
var seqNibbleTab = func() (t [256]byte) {
	for i := range t {
		t[i] = 15
	}
	for i, b := range []byte("ACGT") {
		t[b], t[b|0x20] = 1<<i, 1<<i
	}
	return t
}()

// nibbleSeq decodes a 4-bit code back to a base letter.
func nibbleSeq(n byte) byte {
	switch n {
	case 1:
		return 'A'
	case 2:
		return 'C'
	case 4:
		return 'G'
	case 8:
		return 'T'
	default:
		return 'N'
	}
}

// Writer emits a BAM file.
type Writer struct {
	z     *bgzf.Writer
	refs  map[string]int32
	rec   []byte      // reused record render buffer, length prefix included
	cigar align.Cigar // reused parse scratch (WriteView)
}

// NewWriter writes the BAM header (text header plus reference dictionary)
// and returns a record writer with inline BGZF compression.
func NewWriter(w io.Writer, refs []agd.RefSeq, sortOrder string) (*Writer, error) {
	return newWriter(bgzf.NewWriter(w), refs, sortOrder)
}

// NewWriterExec is NewWriter with full BGZF blocks compressed as tasks on
// exec (nil compresses inline); see bgzf.NewWriterExec.
func NewWriterExec(ctx context.Context, w io.Writer, refs []agd.RefSeq, sortOrder string, exec *dataflow.Executor) (*Writer, error) {
	return newWriter(bgzf.NewWriterExec(ctx, w, gzip.BestSpeed, exec), refs, sortOrder)
}

// NewWriterLevel is NewWriter with an explicit BGZF compression level.
func NewWriterLevel(w io.Writer, refs []agd.RefSeq, sortOrder string, level int) (*Writer, error) {
	return newWriter(bgzf.NewWriterLevel(w, level), refs, sortOrder)
}

func newWriter(z *bgzf.Writer, refs []agd.RefSeq, sortOrder string) (*Writer, error) {
	bw := &Writer{z: z, refs: make(map[string]int32, len(refs))}
	if sortOrder == "" {
		sortOrder = "unsorted"
	}
	var text bytes.Buffer
	fmt.Fprintf(&text, "@HD\tVN:1.6\tSO:%s\n", sortOrder)
	for _, r := range refs {
		fmt.Fprintf(&text, "@SQ\tSN:%s\tLN:%d\n", r.Name, r.Length)
	}

	var hdr bytes.Buffer
	hdr.Write(bamMagic)
	le := binary.LittleEndian
	var n4 [4]byte
	le.PutUint32(n4[:], uint32(text.Len()))
	hdr.Write(n4[:])
	hdr.Write(text.Bytes())
	le.PutUint32(n4[:], uint32(len(refs)))
	hdr.Write(n4[:])
	for i, r := range refs {
		le.PutUint32(n4[:], uint32(len(r.Name)+1))
		hdr.Write(n4[:])
		hdr.WriteString(r.Name)
		hdr.WriteByte(0)
		le.PutUint32(n4[:], uint32(r.Length))
		hdr.Write(n4[:])
		bw.refs[r.Name] = int32(i)
	}
	if _, err := bw.z.Write(hdr.Bytes()); err != nil {
		return nil, err
	}
	return bw, nil
}

// refID resolves a reference name to its dictionary index; "*" and "" map
// to -1.
func (w *Writer) refID(name string) (int32, error) {
	if name == "" || name == "*" {
		return -1, nil
	}
	id, ok := w.refs[name]
	if !ok {
		return 0, fmt.Errorf("bam: unknown reference %q", name)
	}
	return id, nil
}

// Write emits one alignment record.
func (w *Writer) Write(r *sam.Record) error {
	refID, err := w.refID(r.Ref)
	if err != nil {
		return err
	}
	nextRef := r.RNext
	if nextRef == "=" {
		nextRef = r.Ref
	}
	nextRefID, err := w.refID(nextRef)
	if err != nil {
		return err
	}
	cigar, err := align.ParseCigar(r.Cigar)
	if err != nil {
		return err
	}
	w.rec = appendRecord(w.rec[:0], refID, r.Pos-1, nextRefID, r.PNext-1, r.MapQ, r.Flags, r.TLen, r.Name, cigar, r.Seq, r.Qual)
	_, err = w.z.Write(w.rec)
	return err
}

// WriteView emits one alignment record assembled from AGD column bytes and
// a decoded result view — the zero-allocation export path. seq and qual
// must already be in SAM orientation.
func (w *Writer) WriteView(name, seq, qual []byte, v *agd.ResultView, refmap *sam.RefMap) error {
	refID, pos := int32(-1), int64(-1)
	cigar := w.cigar[:0]
	if !v.IsUnmapped() {
		ref, p, err := refmap.Locate(v.Location)
		if err != nil {
			return err
		}
		if refID, err = w.refID(ref); err != nil {
			return err
		}
		pos = p
		if cigar, err = align.ParseCigarBytes(cigar, v.Cigar); err != nil {
			return err
		}
	}
	w.cigar = cigar
	nextRefID, pnext := int32(-1), int64(-1)
	if v.Flags&agd.FlagPaired != 0 && v.MateLocation >= 0 {
		ref, p, err := refmap.Locate(v.MateLocation)
		if err != nil {
			return err
		}
		if nextRefID, err = w.refID(ref); err != nil {
			return err
		}
		pnext = p
	}
	w.rec = appendRecord(w.rec[:0], refID, pos, nextRefID, pnext, v.MapQ, v.Flags, v.TemplateLen, name, cigar, seq, qual)
	_, err := w.z.Write(w.rec)
	return err
}

// appendRecord renders one length-prefixed alignment record onto dst: the
// size is known up front, so dst grows once and every field, packed base
// and quality is written by index.
func appendRecord[S string | []byte](dst []byte, refID int32, pos int64, nextRefID int32, pnext int64, mapq uint8, flags uint16, tlen int32, name S, cigar align.Cigar, seq, qual S) []byte {
	seqBytes := (len(seq) + 1) / 2
	size := 32 + len(name) + 1 + 4*len(cigar) + seqBytes + len(qual)
	start := len(dst)
	dst = slices.Grow(dst, 4+size)[:start+4+size]
	rec := dst[start:]
	le := binary.LittleEndian
	le.PutUint32(rec[0:], uint32(size))
	le.PutUint32(rec[4:], uint32(refID))
	le.PutUint32(rec[8:], uint32(int32(pos)))
	// l_read_name | mapq<<8 | bin<<16 (bin left 0: indexing unused here)
	le.PutUint32(rec[12:], uint32(len(name)+1)|uint32(mapq)<<8)
	le.PutUint32(rec[16:], uint32(len(cigar))|uint32(flags)<<16)
	le.PutUint32(rec[20:], uint32(len(seq)))
	le.PutUint32(rec[24:], uint32(nextRefID))
	le.PutUint32(rec[28:], uint32(int32(pnext)))
	le.PutUint32(rec[32:], uint32(tlen))
	off := 36 + copy(rec[36:], name)
	rec[off] = 0
	off++
	for _, e := range cigar {
		le.PutUint32(rec[off:], uint32(e.Len)<<4|uint32(e.Op.BAMCode()))
		off += 4
	}
	packed := rec[off : off+seqBytes]
	for i := range len(seq) / 2 {
		packed[i] = seqNibbleTab[seq[2*i]]<<4 | seqNibbleTab[seq[2*i+1]]
	}
	if len(seq)%2 == 1 {
		packed[seqBytes-1] = seqNibbleTab[seq[len(seq)-1]] << 4
	}
	q := rec[off+seqBytes:]
	for i := range q {
		q[i] = qual[i] - '!'
	}
	return dst
}

// Close flushes the BGZF stream and writes its EOF marker.
func (w *Writer) Close() error { return w.z.Close() }

// Export streams an AGD dataset out as BAM (§5.7's export path), with
// inline BGZF compression. It returns the number of records written.
func Export(ctx context.Context, ds *agd.Dataset, dst io.Writer) (uint64, error) {
	in, err := sam.ExportGroups(ds)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	return ExportStream(ctx, in, dst, nil)
}

// ExportStream renders a pipeline stream (with a results column) as BAM.
// Records render straight from the streamed column bytes, so the export
// performs no per-record allocation; full BGZF blocks compress as tasks on
// exec (nil compresses inline) while the next block renders. On error it
// waits out the in-flight compression tasks before returning.
func ExportStream(ctx context.Context, in *agd.GroupStream, dst io.Writer, exec *dataflow.Executor) (uint64, error) {
	refmap := sam.NewRefMap(in.Meta.RefSeqs)
	sortOrder := "unsorted"
	if in.Meta.SortedBy == "location" {
		sortOrder = "coordinate"
	}
	w, err := NewWriterExec(ctx, dst, in.Meta.RefSeqs, sortOrder, exec)
	if err != nil {
		return 0, err
	}
	var n uint64
	err = sam.StreamGroups(ctx, in, func(meta, seq, qual []byte, v *agd.ResultView) error {
		n++
		return w.WriteView(meta, seq, qual, v, refmap)
	})
	if err != nil {
		w.z.Abort()
		return n, err
	}
	return n, w.Close()
}

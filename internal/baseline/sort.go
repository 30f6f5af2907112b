package baseline

import (
	"compress/gzip"
	"context"
	"io"
	"runtime"

	"persona/internal/agd"
	"persona/internal/dataflow"
	"persona/internal/formats/bam"
	"persona/internal/formats/sam"
)

// SamtoolsSortBAM models `samtools sort` with threads: it parses an entire
// BAM stream into row records, sorts by coordinate, and writes a sorted BAM
// with parallel BGZF compression. All columns of every record are
// decompressed, parsed and re-compressed — exactly the row-orientation tax
// Table 2 measures against AGD.
func SamtoolsSortBAM(in io.Reader, out io.Writer) (int, error) {
	r, err := bam.NewReader(in)
	if err != nil {
		return 0, errRecordf("samtools-sort", err)
	}
	refs := r.Refs()
	idx := refIndex(refs)
	var recs []sortKeyed
	for r.Scan() {
		rec := r.Record()
		recs = append(recs, keyOf(&rec, idx))
	}
	if err := r.Err(); err != nil {
		return 0, errRecordf("samtools-sort", err)
	}
	coordinateSort(recs)
	// samtools --threads: BGZF blocks compress on a local executor.
	n := runtime.NumCPU()
	exec := dataflow.NewExecutor(n, 2*n)
	defer exec.Close()
	w, err := bam.NewWriterExec(context.Background(), out, refs, "coordinate", exec)
	if err != nil {
		return 0, errRecordf("samtools-sort", err)
	}
	for i := range recs {
		if err := w.Write(&recs[i].rec); err != nil {
			return 0, errRecordf("samtools-sort", err)
		}
	}
	if err := w.Close(); err != nil {
		return 0, errRecordf("samtools-sort", err)
	}
	return len(recs), nil
}

// ConvertSAMToBAM models the `samtools view -b` conversion step that Table 2
// bills separately ("Samtools requires sorting input in BAM format").
func ConvertSAMToBAM(in io.Reader, out io.Writer, refs []agd.RefSeq) (int, error) {
	sc := sam.NewScanner(in)
	w, err := bam.NewWriter(out, refs, "unsorted")
	if err != nil {
		return 0, errRecordf("sam2bam", err)
	}
	n := 0
	for sc.Scan() {
		rec := sc.Record()
		if err := w.Write(&rec); err != nil {
			return n, errRecordf("sam2bam", err)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, errRecordf("sam2bam", err)
	}
	return n, w.Close()
}

// PicardSortSAM models Picard's SortSam: strictly single-threaded (§5.6:
// "Picard does not have an option for multithreading"), SAM text in, sorted
// BAM out (SortSam's usual deployment), with per-record defensive copies
// standing in for Picard's per-record JVM object allocation.
func PicardSortSAM(in io.Reader, out io.Writer, refs []agd.RefSeq) (int, error) {
	sc := sam.NewScanner(in)
	idx := refIndex(refs)
	var recs []sortKeyed
	for sc.Scan() {
		rec := sc.Record()
		// Deliberate per-record copy churn: Picard materializes a
		// SAMRecord object graph per row.
		cp := rec
		cp.Name = string(append([]byte{}, rec.Name...))
		cp.Seq = string(append([]byte{}, rec.Seq...))
		cp.Qual = string(append([]byte{}, rec.Qual...))
		cp.Cigar = string(append([]byte{}, rec.Cigar...))
		recs = append(recs, keyOf(&cp, idx))
	}
	if err := sc.Err(); err != nil {
		return 0, errRecordf("picard-sort", err)
	}
	coordinateSort(recs)
	// Picard's Deflater runs at its default level (~5-6) and cannot be
	// parallelized; together with the single-threaded sort this is where
	// the paper's 5.15x gap comes from.
	w, err := bam.NewWriterLevel(out, refs, "coordinate", gzip.DefaultCompression)
	if err != nil {
		return 0, errRecordf("picard-sort", err)
	}
	for i := range recs {
		if err := w.Write(&recs[i].rec); err != nil {
			return 0, errRecordf("picard-sort", err)
		}
	}
	if err := w.Close(); err != nil {
		return 0, errRecordf("picard-sort", err)
	}
	return len(recs), nil
}

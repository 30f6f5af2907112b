package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"persona"
	"persona/internal/agd"
	"persona/internal/formats/bam"
	"persona/internal/formats/fastq"
	"persona/internal/reads"
)

// sizes are the workloads' input sizes, sized for a 2-vCPU host.
type sizes struct {
	alignGenome, alignReads, alignChunk int
	sortGenome, sortReads, sortChunk    int
	wgsGenome, wgsReads, wgsChunk       int
	serveGenome, serveReads, serveChunk int
	serveDatasets                       int
	serveRate                           float64       // open-loop arrivals per second
	serveLatency                        time.Duration // simulated per-read store latency
	setups                              int           // set-ups per run, for the setup_s median
}

// input is one generated dataset: the reference, its reads as imported, and
// where each read was drawn from.
type input struct {
	genome  *persona.Genome
	reads   []reads.Read
	origins map[string]reads.Origin // read name → simulated origin
}

// readLen is the paper's read length.
const readLen = 101

// accuracySlack is how far, in bases, an alignment may start from its
// simulated origin and still count as placed correctly.
const accuracySlack = 5

// simulate synthesizes a genome and draws reads from it, all from seed.
func simulate(genomeSize, n int, dupFrac float64, seed int64) (*input, error) {
	g, err := persona.SynthesizeGenome(genomeSize, seed)
	if err != nil {
		return nil, fmt.Errorf("synthesize genome: %w", err)
	}
	sim, err := reads.NewSimulator(g, reads.SimConfig{
		Seed: seed + 1, N: n, ReadLen: readLen, ErrorRate: 0.003, DuplicateFraction: dupFrac,
	})
	if err != nil {
		return nil, fmt.Errorf("simulate reads: %w", err)
	}
	rs, origins := sim.All()
	in := &input{genome: g, reads: rs, origins: make(map[string]reads.Origin, len(rs))}
	for i := range rs {
		in.origins[rs[i].Meta] = origins[i]
	}
	return in, nil
}

// importReads writes reads as FASTQ and imports them through the public
// import path as dataset name.
func importReads(ctx context.Context, store persona.Store, name string, in *input, rs []reads.Read, chunk int) error {
	var buf bytes.Buffer
	w := fastq.NewWriter(&buf)
	for i := range rs {
		if err := w.Write(&rs[i]); err != nil {
			return fmt.Errorf("import %s: %w", name, err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("import %s: %w", name, err)
	}
	if _, _, err := persona.ImportFASTQ(ctx, store, name, &buf, persona.RefSeqs(in.genome), chunk); err != nil {
		return fmt.Errorf("import %s: %w", name, err)
	}
	return nil
}

// copyStore copies every blob of src into a fresh in-memory store.
func copyStore(src persona.Store) (persona.Store, error) {
	names, err := src.List("")
	if err != nil {
		return nil, fmt.Errorf("copy store: %w", err)
	}
	dst := persona.NewMemStore()
	for _, n := range names {
		b, err := src.Get(n)
		if err != nil {
			return nil, fmt.Errorf("copy store: %w", err)
		}
		if err := dst.Put(n, b); err != nil {
			return nil, fmt.Errorf("copy store: %w", err)
		}
	}
	return dst, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// placed reports whether an alignment at global position pos on the given
// strand matches a read's simulated origin.
func placed(o reads.Origin, pos int64, reverse bool) bool {
	d := pos - o.Pos
	return reverse == o.Reverse && d >= -accuracySlack && d <= accuracySlack
}

// bamAccuracy returns the fraction of the BAM's records placed at their
// read's simulated origin, and the record count.
func bamAccuracy(data []byte, in *input) (float64, int, error) {
	r, err := bam.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, 0, fmt.Errorf("bam accuracy: %w", err)
	}
	n, ok := 0, 0
	for r.Scan() {
		rec := r.Record()
		n++
		o, known := in.origins[rec.Name]
		if !known || rec.Flags&agd.FlagUnmapped != 0 {
			continue
		}
		pos, err := in.genome.GlobalPos(rec.Ref, rec.Pos-1)
		if err == nil && placed(o, pos, rec.Flags&agd.FlagReverse != 0) {
			ok++
		}
	}
	if err := r.Err(); err != nil {
		return 0, 0, fmt.Errorf("bam accuracy: %w", err)
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("bam accuracy: no records")
	}
	return float64(ok) / float64(n), n, nil
}

// defaultSizes are the sizes README.md describes; the serve job size and
// rate put ≥200 open-loop jobs at ≈40% load into four fifths of a run of 15 s or more
// (BENCHMARK.json runs 25 s).
var defaultSizes = sizes{
	alignGenome: 4_000_000, alignReads: 20_000, alignChunk: 1000,
	sortGenome: 1_000_000, sortReads: 50_000, sortChunk: 1250,
	wgsGenome: 1_000_000, wgsReads: 20_000, wgsChunk: 1000,
	serveGenome: 1_000_000, serveReads: 250, serveChunk: 125, serveDatasets: 4,
	serveRate: 20, serveLatency: 5 * time.Millisecond,
	setups: 3,
}

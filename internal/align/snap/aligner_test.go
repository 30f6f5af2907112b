package snap

import (
	"math/rand"
	"testing"

	"persona/internal/agd"
	"persona/internal/align"
	"persona/internal/genome"
	"persona/internal/reads"
)

// editRead copies g[pos, pos+n) and applies edits random substitutions,
// insertions and deletions, keeping the read free of N; ok is false when the
// reference window holds an N.
func editRead(rng *rand.Rand, g *genome.Genome, pos int64, n, edits int) (read []byte, ok bool) {
	ref, err := g.Slice(pos, n)
	if err != nil {
		return nil, false
	}
	for _, b := range ref {
		if genome.Code(b) > 3 {
			return nil, false
		}
	}
	read = append([]byte(nil), ref...)
	for range edits {
		p := rng.Intn(len(read))
		switch rng.Intn(3) {
		case 0:
			read[p] = "ACGT"[(genome.Code(read[p])+1+uint8(rng.Intn(3)))%4]
		case 1:
			read = append(read[:p], read[p+1:]...)
		case 2:
			read = append(read[:p], append([]byte{"ACGT"[rng.Intn(4)]}, read[p:]...)...)
		}
	}
	return read, true
}

// checkWideBand re-aligns a mapped result's read with the MaxDist band, as
// finish did before its band narrowed to the verified distance, and demands
// the same distance and CIGAR.
func checkWideBand(t *testing.T, g *genome.Genome, maxDist int, read []byte, res agd.Result) {
	t.Helper()
	if res.IsUnmapped() {
		return
	}
	query := read
	if res.IsReverse() {
		query = genome.ReverseComplement(make([]byte, len(read)), read)
	}
	n := min(int64(len(query)+maxDist), g.Len()-res.Location)
	window, err := g.Slice(res.Location, int(n))
	if err != nil {
		t.Fatal(err)
	}
	dist, cigar, _ := align.BoundedAlign(query, window, maxDist)
	if int32(dist) != res.Score || cigar.String() != res.Cigar {
		t.Fatalf("read at %d: narrow band (%d, %s), MaxDist band (%d, %s)",
			res.Location, res.Score, res.Cigar, dist, cigar)
	}
}

func TestFinishNarrowBandMatchesWide(t *testing.T) {
	const readLen, maxDist = 101, 12
	g := testGenome(t, 300_000, 41)
	idx := testIndex(t, g)
	a := NewAligner(idx, Config{MaxDist: maxDist, MinInsert: 100, MaxInsert: 800})
	rng := rand.New(rand.NewSource(42))
	rc := func(b []byte) []byte { return genome.ReverseComplement(make([]byte, len(b)), b) }

	seen := map[[2]int]bool{} // (distance, strand) pairs covered
	for edits := 0; edits <= maxDist; edits++ {
		for trial := 0; trial < 40; trial++ {
			pos := rng.Int63n(g.Len() - readLen)
			if trial == 0 {
				// The candidate window runs off the genome end.
				pos = g.Len() - readLen
			}
			read, ok := editRead(rng, g, pos, readLen, edits)
			if !ok {
				continue
			}
			reverse := trial%2 == 1
			if reverse {
				read = rc(read)
			}
			res := a.AlignRead(read)
			checkWideBand(t, g, maxDist, read, res)
			if !res.IsUnmapped() {
				seen[[2]int{int(res.Score), b2i(res.IsReverse())}] = true
			}
		}
	}
	for d := 0; d <= 8; d++ {
		for strand := 0; strand < 2; strand++ {
			if !seen[[2]int{d, strand}] {
				t.Errorf("no mapped read at distance %d on strand %d", d, strand)
			}
		}
	}

	// Proper pairs finish both mates at their pair-chosen distances.
	proper := 0
	for edits := 0; edits <= maxDist; edits++ {
		for trial := 0; trial < 20; trial++ {
			pos := rng.Int63n(g.Len() - 500)
			r1, ok1 := editRead(rng, g, pos, readLen, edits)
			r2, ok2 := editRead(rng, g, pos+300, readLen, rng.Intn(edits+1))
			if !ok1 || !ok2 {
				continue
			}
			r2 = rc(r2)
			if trial%2 == 1 {
				r1, r2 = r2, r1
			}
			res1, res2 := a.AlignPair(r1, r2)
			checkWideBand(t, g, maxDist, r1, res1)
			checkWideBand(t, g, maxDist, r2, res2)
			if res1.Flags&agd.FlagProperPair != 0 {
				proper++
			}
		}
	}
	if proper < 100 {
		t.Fatalf("only %d proper pairs", proper)
	}
}

func TestAlignReadZeroAlloc(t *testing.T) {
	g := testGenome(t, 200_000, 43)
	idx := testIndex(t, g)
	a := NewAligner(idx, Config{})
	sim, err := reads.NewSimulator(g, reads.SimConfig{Seed: 44, N: 64, ReadLen: 101, ErrorRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := sim.All()
	for i := range rs {
		a.AlignRead(rs[i].Bases) // warm the scratch buffers and CIGAR table
	}
	next := 0
	allocs := testing.AllocsPerRun(500, func() {
		a.AlignRead(rs[next%len(rs)].Bases)
		next++
	})
	if allocs != 0 {
		t.Fatalf("warm AlignRead allocates %.2f objects/read, want 0", allocs)
	}
}

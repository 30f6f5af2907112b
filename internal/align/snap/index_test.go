package snap

import (
	"math/rand"
	"slices"
	"testing"

	"persona/internal/genome"
)

// mapIndex is the map-backed seed index the flat table replaced, kept as
// the reference: every seed's first maxHits locations in genome order.
func mapIndex(g *genome.Genome, seedLen, maxHits int) map[uint64][]int32 {
	table := make(map[uint64][]int32)
	seq := g.Seq()
	var key uint64
	mask := uint64(1)<<(2*uint(seedLen)) - 1
	valid := 0
	for i := 0; i < len(seq); i++ {
		code := uint64(genome.Code(seq[i]))
		if code > 3 {
			valid = 0
			key = 0
			continue
		}
		key = (key<<2 | code) & mask
		valid++
		if valid < seedLen {
			continue
		}
		locs := table[key]
		if len(locs) >= maxHits {
			continue
		}
		table[key] = append(locs, int32(i-seedLen+1))
	}
	return table
}

// mapLookup is Lookup against the reference map.
func mapLookup(table map[uint64][]int32, bases []byte, i, seedLen int) []int32 {
	var key uint64
	for _, b := range bases[i : i+seedLen] {
		code := uint64(genome.Code(b))
		if code > 3 {
			return nil
		}
		key = key<<2 | code
	}
	return table[key]
}

// checkLookup compares one flat-index lookup with the reference.
func checkLookup(t *testing.T, idx *Index, ref map[uint64][]int32, bases []byte, i int) []int32 {
	t.Helper()
	got := idx.Lookup(bases, i)
	want := mapLookup(ref, bases, i, idx.SeedLen())
	if !slices.Equal(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("seed %q: flat index %v, map %v", bases[i:i+idx.SeedLen()], got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("seed %q: lookup capacity %d exceeds its %d hits", bases[i:i+idx.SeedLen()], cap(got), len(got))
	}
	return got
}

func TestIndexMatchesMapReference(t *testing.T) {
	const seedLen = 16
	rng := rand.New(rand.NewSource(31))
	randSeed := func(withN bool) []byte {
		s := make([]byte, seedLen)
		for i := range s {
			s[i] = "ACGT"[rng.Intn(4)]
		}
		if withN {
			s[rng.Intn(seedLen)] = 'N'
		}
		return s
	}

	t.Run("default", func(t *testing.T) {
		cfg := genome.DefaultSyntheticConfig(200_000, 32)
		cfg.NRunEvery = 5_000 // windows containing N throughout
		g, err := genome.Synthesize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := BuildIndex(g, IndexConfig{SeedLen: seedLen})
		if err != nil {
			t.Fatal(err)
		}
		ref := mapIndex(g, seedLen, 300)
		if idx.NumSeeds() != len(ref) {
			t.Fatalf("NumSeeds = %d, map has %d", idx.NumSeeds(), len(ref))
		}
		seq := g.Seq()
		withN := 0
		for i := 0; i+seedLen <= len(seq); i++ {
			if checkLookup(t, idx, ref, seq, i) == nil {
				withN++
			}
		}
		if withN == 0 {
			t.Fatal("no genome window contained N")
		}
		misses := 0
		for range 50_000 {
			if checkLookup(t, idx, ref, randSeed(false), 0) == nil {
				misses++
			}
		}
		if misses < 45_000 {
			t.Fatalf("only %d of 50000 random seeds missed", misses)
		}
		for range 1_000 {
			if got := checkLookup(t, idx, ref, randSeed(true), 0); got != nil {
				t.Fatalf("window with N found %v", got)
			}
		}
	})

	t.Run("repeats-capped", func(t *testing.T) {
		cfg := genome.DefaultSyntheticConfig(100_000, 33)
		cfg.RepeatFraction = 0.5
		synth, err := genome.Synthesize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		contigs := slices.Clone(synth.Contigs())
		tandem := make([]byte, 0, 4_000)
		for len(tandem) < cap(tandem) {
			tandem = append(tandem, "ACGTTGCAAG"...)
		}
		contigs = append(contigs, genome.Contig{Name: "tandem", Seq: tandem})
		g, err := genome.New(contigs)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := BuildIndex(g, IndexConfig{SeedLen: seedLen, MaxSeedHits: 2})
		if err != nil {
			t.Fatal(err)
		}
		ref := mapIndex(g, seedLen, 2)
		uncapped := mapIndex(g, seedLen, 1<<30)
		seq := g.Seq()
		capped := 0
		for i := 0; i+seedLen <= len(seq); i++ {
			checkLookup(t, idx, ref, seq, i)
			if len(mapLookup(uncapped, seq, i, seedLen)) > 2 {
				capped++
			}
		}
		if capped < 1_000 {
			t.Fatalf("only %d positions hold a seed with more than 2 hits", capped)
		}
	})
}

// Package snap implements a SNAP-style short-read aligner [Zaharia et al.,
// CoRR 2011]: a hash-based index of fixed-length reference seeds, candidate
// lookup at several read offsets, and Landau-Vishkin verification of each
// candidate with best/second-best tracking. This is the high-throughput
// aligner of the paper's evaluation (§4.3, §5); it is optimized for large
// memory and many cores.
package snap

import (
	"fmt"
	"iter"
	"math/bits"

	"persona/internal/genome"
)

// IndexConfig parameterizes index construction.
type IndexConfig struct {
	// SeedLen is the seed length in bases (max 31). Real SNAP uses ~20 for
	// a 3 Gbp genome; smaller synthetic genomes can use 16.
	SeedLen int
	// MaxSeedHits caps the locations kept per seed (repeat masking): a
	// seed occurring more often keeps only its first MaxSeedHits locations
	// in genome order. 0 means 300.
	MaxSeedHits int
}

// Index is the hash-based seed index: seed value → reference locations (the
// "Genome Index: Seed → Ref. Loc" of Fig. 3).
//
// Like SNAP's own table it is flat and pointer-free: one power-of-two
// open-addressed slot array (linear probing, multiplicative hash) whose
// slots point into one contiguous hit array, where each seed's locations sit
// together in genome order. A lookup is a hash, a short probe and a
// sub-slice, and the garbage collector has nothing to scan.
type Index struct {
	gen     *genome.Genome
	seedLen int
	slots   []slot
	shift   uint    // 64 - log2(len(slots)): hash bits select the home slot
	hits    []int32 // every seed's locations, contiguous per seed
	seeds   int     // distinct seeds retained
}

// slot is one seed's entry: its key and the extent of its locations in the
// hit array. Free slots hold emptyKey.
type slot struct {
	key      uint64
	off, cnt uint32
}

// emptyKey marks a free slot. Seeds pack at most 31 bases into 62 bits, so
// no seed key collides with it.
const emptyKey = ^uint64(0)

// hashMul is the 64-bit golden-ratio multiplier of Fibonacci hashing; the
// product's top bits spread the 2-bit-packed seeds over the table.
const hashMul = 0x9E3779B97F4A7C15

// BuildIndex indexes every seed of the genome. Seeds containing N are
// skipped. Positions are stored as int32 (genomes beyond 2 Gb would need a
// wider type; hg19 contigs fit individually and the paper's datasets do
// too).
//
// The build makes two passes over the genome: the first counts each seed's
// locations (capped at MaxSeedHits) into the slot table, a prefix sum over
// the slots lays out the hit array, and the second fills it in genome order.
// The table is sized from the genome length so it stays at most half full.
func BuildIndex(g *genome.Genome, cfg IndexConfig) (*Index, error) {
	if cfg.SeedLen <= 0 {
		cfg.SeedLen = 16
	}
	if cfg.SeedLen > 31 {
		return nil, fmt.Errorf("snap: seed length %d exceeds 31", cfg.SeedLen)
	}
	if cfg.MaxSeedHits <= 0 {
		cfg.MaxSeedHits = 300
	}
	if g.Len() > 1<<31-1 {
		return nil, fmt.Errorf("snap: genome too large for int32 locations (%d bases)", g.Len())
	}
	if int64(cfg.SeedLen) > g.Len() {
		return nil, fmt.Errorf("snap: seed length %d exceeds genome length %d", cfg.SeedLen, g.Len())
	}

	seq := g.Seq()
	// Distinct seeds are bounded by the seed positions and by the key space.
	n := uint64(len(seq) - cfg.SeedLen + 1)
	n = min(n, uint64(1)<<(2*uint(cfg.SeedLen)))
	logSize := bits.Len64(2*n - 1) // smallest power of two ≥ 2n
	idx := &Index{
		gen:     g,
		seedLen: cfg.SeedLen,
		slots:   make([]slot, 1<<logSize),
		shift:   uint(64 - logSize),
	}
	for i := range idx.slots {
		idx.slots[i].key = emptyKey
	}
	maxHits := uint32(cfg.MaxSeedHits)

	for _, key := range seeds(seq, cfg.SeedLen) {
		s := idx.probe(key)
		s.key = key
		if s.cnt < maxHits {
			s.cnt++
		}
	}
	var total uint32
	for i := range idx.slots {
		s := &idx.slots[i]
		if s.key == emptyKey {
			continue
		}
		s.off = total
		total += s.cnt
		s.cnt = 0 // refilled by the second pass
		idx.seeds++
	}
	idx.hits = make([]int32, total)
	for pos, key := range seeds(seq, cfg.SeedLen) {
		// The second pass sees the same seeds in the same order, so each
		// slot refills to exactly its first-pass count.
		if s := idx.probe(key); s.cnt < maxHits {
			idx.hits[s.off+s.cnt] = pos
			s.cnt++
		}
	}
	return idx, nil
}

// seeds yields (position, key) for every seed of seq that contains no
// ambiguous base, in genome order.
func seeds(seq []byte, seedLen int) iter.Seq2[int32, uint64] {
	return func(yield func(int32, uint64) bool) {
		var key uint64
		mask := uint64(1)<<(2*uint(seedLen)) - 1
		valid := 0 // bases since last N
		for i, b := range seq {
			code := uint64(genome.Code(b))
			if code > 3 {
				valid = 0
				key = 0
				continue
			}
			key = (key<<2 | code) & mask
			valid++
			if valid >= seedLen && !yield(int32(i-seedLen+1), key) {
				return
			}
		}
	}
}

// probe returns key's slot, or the free slot that ends key's probe
// sequence if the key is not in the table. The table is sized at build time
// to stay at most half full, so a free slot always exists.
func (x *Index) probe(key uint64) *slot {
	mask := uint64(len(x.slots) - 1)
	for i := (key * hashMul) >> x.shift; ; i = (i + 1) & mask {
		if s := &x.slots[i]; s.key == key || s.key == emptyKey {
			return s
		}
	}
}

// SeedLen returns the configured seed length.
func (x *Index) SeedLen() int { return x.seedLen }

// Genome returns the indexed genome.
func (x *Index) Genome() *genome.Genome { return x.gen }

// NumSeeds returns the number of distinct seeds retained.
func (x *Index) NumSeeds() int { return x.seeds }

// seedKey packs bases[i:i+seedLen] into a 2-bit key; ok is false when the
// window contains an ambiguous base.
func (x *Index) seedKey(bases []byte, i int) (key uint64, ok bool) {
	for _, b := range bases[i : i+x.seedLen] {
		code := uint64(genome.Code(b))
		if code > 3 {
			return 0, false
		}
		key = key<<2 | code
	}
	return key, true
}

// Lookup returns the reference locations of the seed at bases[i:i+seedLen],
// in genome order. The returned slice is shared with the index (its capacity
// ends at its length); callers must not mutate it.
func (x *Index) Lookup(bases []byte, i int) []int32 {
	key, ok := x.seedKey(bases, i)
	if !ok {
		return nil
	}
	s := x.probe(key)
	if s.key != key {
		return nil
	}
	return x.hits[s.off : s.off+s.cnt : s.off+s.cnt]
}

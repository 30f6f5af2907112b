package snap

import (
	"fmt"
	"slices"

	"persona/internal/agd"
	"persona/internal/align"
	"persona/internal/genome"
)

// Config parameterizes alignment.
type Config struct {
	// MaxDist is the maximum edit distance accepted (default 12).
	MaxDist int
	// SeedStride is the spacing between seed sampling offsets within a read
	// (default seedLen/2, minimum 1).
	SeedStride int
	// MaxCandidates caps the verified candidate locations per read
	// direction (default 64). Candidates beyond the cap are counted toward
	// ambiguity but not verified.
	MaxCandidates int
	// MinInsert/MaxInsert bound proper-pair insert sizes (defaults 50/1000).
	MinInsert, MaxInsert int
}

func (c Config) withDefaults(seedLen int) Config {
	if c.MaxDist <= 0 {
		c.MaxDist = 12
	}
	if c.SeedStride <= 0 {
		c.SeedStride = seedLen / 2
		if c.SeedStride < 1 {
			c.SeedStride = 1
		}
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 64
	}
	if c.MinInsert <= 0 {
		c.MinInsert = 50
	}
	if c.MaxInsert <= 0 {
		c.MaxInsert = 1000
	}
	return c
}

// Aligner aligns reads against a SNAP index. Aligners are stateless between
// calls except for scratch buffers, so one Aligner must be used by a single
// goroutine; create one per worker (they share the read-only index).
//
// All per-read state lives in reused scratch buffers, so steady-state
// AlignRead performs no heap allocation (the hot-loop requirement of §6:
// the aligner is core bound, and allocator traffic is pure overhead).
type Aligner struct {
	idx *Index
	cfg Config

	// scratch
	rc       []byte
	cands    []candidate
	keys     []candKey
	lv       align.LVScratch
	banded   align.BandedScratch
	cigarBuf []byte
	cigarTab map[string]string
	scoreBuf [2][]scored
	counts   Stats
}

// candKey is one candidate occurrence gathered from seed lookups before
// deduplication: the (position, strand) key plus the order it was seen in.
type candKey struct {
	key int64 // pos<<1 | rc
	seq int32
}

// maxCigarTab bounds the interned-CIGAR table. Real read sets repeat a small
// set of CIGARs ("101M", one-indel variants, ...), so the table converges and
// steady-state AlignRead allocates nothing; the bound keeps pathological
// inputs from growing it without limit.
const maxCigarTab = 1 << 14

// Stats counts aligner work for the perfmodel instrumentation.
type Stats struct {
	Reads         int64
	SeedLookups   int64
	CandidatesxLV int64 // Landau-Vishkin verifications
	LVCells       int64 // measured LV dependent operations (extends + diagonal updates)
	BytesCompared int64 // reference window bytes touched during verification
	Aligned       int64
}

type candidate struct {
	pos int64
	rc  bool
}

// NewAligner returns an aligner over idx.
func NewAligner(idx *Index, cfg Config) *Aligner {
	c := cfg.withDefaults(idx.seedLen)
	return &Aligner{
		idx:      idx,
		cfg:      c,
		cands:    make([]candidate, 0, c.MaxCandidates*2),
		keys:     make([]candKey, 0, 256),
		cigarBuf: make([]byte, 0, 64),
		cigarTab: make(map[string]string, 64),
	}
}

// Stats returns accumulated work counters.
func (a *Aligner) Stats() Stats { return a.counts }

// AlignRead aligns a single read and returns its result record.
func (a *Aligner) AlignRead(bases []byte) agd.Result {
	a.counts.Reads++
	best, second, bestCount, bestCand := a.findBest(bases)
	if bestCand == nil {
		return agd.Result{
			Location:     agd.UnmappedLocation,
			MateLocation: agd.UnmappedLocation,
			Flags:        agd.FlagUnmapped,
			MapQ:         0,
		}
	}
	a.counts.Aligned++
	return a.finish(bases, *bestCand, best, second, bestCount)
}

// findBest gathers and verifies candidates for both strands, returning the
// best and second-best edit distances, the count of locations achieving the
// best, and the best candidate.
func (a *Aligner) findBest(bases []byte) (best, second, bestCount int, bestCand *candidate) {
	cfg := a.cfg
	rcBases := a.gatherCandidates(bases)
	best, second = cfg.MaxDist+1, -1
	bestCount = 0
	for i := range a.cands {
		c := a.cands[i]
		query := bases
		if c.rc {
			query = rcBases
		}
		// Verify with a bound just past the current best: wide enough to
		// find ties and the second-best distances that set MAPQ, tight
		// enough to cut LV work once a good hit exists.
		d := a.verify(query, c.pos, min(best+6, cfg.MaxDist))
		if d < 0 {
			continue
		}
		switch {
		case d < best:
			if best <= cfg.MaxDist {
				second = best
			}
			best = d
			bestCount = 1
			bestCand = &a.cands[i]
		case d == best:
			bestCount++
			if second < 0 || d < second {
				second = d
			}
		case second < 0 || d < second:
			second = d
		}
	}
	if best > cfg.MaxDist {
		return 0, 0, 0, nil
	}
	return best, second, bestCount, bestCand
}

// gatherCandidates fills a.cands with deduplicated candidate positions from
// seeds at several offsets, for forward and reverse-complement orientations.
// It returns the reverse complement of bases (backed by the a.rc scratch, so
// valid until the next reverseComplement call) for callers to verify rc
// candidates without recomputing it.
//
// Deduplication runs on a reused sorted slice instead of a hash set: all
// occurrences are collected with their arrival order, sorted by (key, order),
// uniqued keeping each key's first occurrence, and re-sorted by order — the
// same first-seen candidate sequence a map would produce, with zero
// steady-state allocation and no per-occurrence hashing.
func (a *Aligner) gatherCandidates(bases []byte) []byte {
	a.cands = a.cands[:0]
	a.keys = a.keys[:0]
	rc := a.reverseComplement(bases)
	seedLen := a.idx.seedLen
	if len(bases) < seedLen {
		return rc
	}
	for _, dir := range [2]struct {
		seq []byte
		rc  bool
	}{{bases, false}, {rc, true}} {
		lastOffset := len(dir.seq) - seedLen
		for off := 0; ; off += a.cfg.SeedStride {
			if off > lastOffset {
				break
			}
			a.counts.SeedLookups++
			for _, loc := range a.idx.Lookup(dir.seq, off) {
				pos := int64(loc) - int64(off)
				if pos < 0 || pos+int64(len(dir.seq)) > a.idx.gen.Len()+int64(a.cfg.MaxDist) {
					continue
				}
				// Key forward and rc candidates separately.
				key := pos<<1 | int64(b2i(dir.rc))
				a.keys = append(a.keys, candKey{key: key, seq: int32(len(a.keys))})
			}
		}
	}

	slices.SortFunc(a.keys, func(x, y candKey) int {
		if x.key != y.key {
			if x.key < y.key {
				return -1
			}
			return 1
		}
		return int(x.seq) - int(y.seq)
	})
	uniq := a.keys[:0]
	for _, k := range a.keys {
		if len(uniq) > 0 && k.key == uniq[len(uniq)-1].key {
			continue
		}
		uniq = append(uniq, k)
	}
	slices.SortFunc(uniq, func(x, y candKey) int { return int(x.seq) - int(y.seq) })
	for _, k := range uniq {
		if len(a.cands) >= a.cfg.MaxCandidates*2 {
			break
		}
		a.cands = append(a.cands, candidate{pos: k.key >> 1, rc: k.key&1 != 0})
	}
	return rc
}

// verify runs bounded Landau-Vishkin of query at pos, returning the edit
// distance or -1.
func (a *Aligner) verify(query []byte, pos int64, maxK int) int {
	if maxK < 0 {
		return -1
	}
	window := a.window(pos, len(query)+maxK)
	if window == nil {
		return -1
	}
	a.counts.CandidatesxLV++
	d, ops := a.lv.DistanceOps(query, window, maxK)
	a.counts.LVCells += int64(ops)
	a.counts.BytesCompared += int64(len(window))
	return d
}

// window slices the reference at [pos, pos+n), truncating at the genome end.
func (a *Aligner) window(pos int64, n int) []byte {
	if pos < 0 || pos >= a.idx.gen.Len() {
		return nil
	}
	end := pos + int64(n)
	if end > a.idx.gen.Len() {
		end = a.idx.gen.Len()
	}
	w, err := a.idx.gen.Slice(pos, int(end-pos))
	if err != nil {
		return nil
	}
	return w
}

// finish re-aligns the winning candidate to recover the CIGAR and builds the
// result record.
//
// The CIGAR band is the candidate's verified distance best, with the MaxDist
// band as the fallback should the narrow one find nothing; the header of
// internal/align/edit.go shows why both bands return the same alignment.
func (a *Aligner) finish(bases []byte, c candidate, best, second, bestCount int) agd.Result {
	query := bases
	if c.rc {
		query = a.reverseComplement(bases)
	}
	window := a.window(c.pos, len(query)+a.cfg.MaxDist)
	dist, cigar, _ := a.banded.BoundedAlign(query, window, best)
	if dist < 0 {
		dist, cigar, _ = a.banded.BoundedAlign(query, window, a.cfg.MaxDist)
	}
	if dist < 0 {
		// The LV verification succeeded, so this cannot happen with a
		// consistent implementation; treat defensively as unmapped.
		return agd.Result{Location: agd.UnmappedLocation, MateLocation: agd.UnmappedLocation, Flags: agd.FlagUnmapped}
	}
	var flags uint16
	if c.rc {
		flags |= agd.FlagReverse
	}
	return agd.Result{
		Location:     c.pos,
		MateLocation: agd.UnmappedLocation,
		Score:        int32(best),
		MapQ:         align.MapQ(best, second, bestCount),
		Flags:        flags,
		Cigar:        a.internCigar(cigar),
	}
}

// internCigar renders a CIGAR into the aligner's scratch and interns the
// text in a bounded table, so a repeated CIGAR costs no allocation.
func (a *Aligner) internCigar(c align.Cigar) string {
	a.cigarBuf = c.AppendText(a.cigarBuf[:0])
	if s, ok := a.cigarTab[string(a.cigarBuf)]; ok {
		return s
	}
	if len(a.cigarTab) >= maxCigarTab {
		clear(a.cigarTab)
	}
	s := string(a.cigarBuf)
	a.cigarTab[s] = s
	return s
}

func (a *Aligner) reverseComplement(bases []byte) []byte {
	if cap(a.rc) < len(bases) {
		a.rc = make([]byte, len(bases))
	}
	a.rc = a.rc[:len(bases)]
	return genome.ReverseComplement(a.rc, bases)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Validate sanity-checks a configuration against an index.
func (c Config) Validate(idx *Index) error {
	cfg := c.withDefaults(idx.seedLen)
	if cfg.MinInsert >= cfg.MaxInsert {
		return fmt.Errorf("snap: MinInsert %d >= MaxInsert %d", cfg.MinInsert, cfg.MaxInsert)
	}
	return nil
}

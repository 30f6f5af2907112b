package align

import (
	"math/rand"
	"testing"
	"testing/quick"

	"persona/internal/genome"
)

// semiGlobal computes min edit distance of query against any prefix of ref
// by full DP: the reference semantics for LandauVishkin and BoundedAlign.
func semiGlobal(query, ref []byte) int {
	m, n := len(query), len(ref)
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	// prev[j] = distance aligning empty query to ref[:j]; leading ref bases
	// must be consumed as deletions because alignment starts at ref[0].
	for j := 0; j <= n; j++ {
		prev[j] = j
	}
	for i := 1; i <= m; i++ {
		cur[0] = i
		for j := 1; j <= n; j++ {
			cost := 1
			if query[i-1] == ref[j-1] {
				cost = 0
			}
			best := prev[j-1] + cost
			if d := prev[j] + 1; d < best {
				best = d
			}
			if d := cur[j-1] + 1; d < best {
				best = d
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	best := prev[0]
	for j := 1; j <= n; j++ {
		if prev[j] < best {
			best = prev[j]
		}
	}
	return best
}

func TestEditDistanceBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"A", "", 1},
		{"", "A", 1},
		{"ACGT", "ACGT", 0},
		{"ACGT", "ACCT", 1},
		{"ACGT", "AGT", 1},
		{"ACGT", "TGCA", 4},
		{"kitten", "sitting", 3},
	}
	for _, c := range cases {
		if got := EditDistance([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("EditDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLandauVishkinBasics(t *testing.T) {
	// query aligned against ref prefix; trailing ref free.
	cases := []struct {
		q, r string
		k    int
		want int
	}{
		{"ACGT", "ACGTTTTT", 3, 0},
		{"ACGT", "ACCTTTTT", 3, 1},
		{"ACGT", "AACGTTTT", 3, 1},  // one leading deletion
		{"AACGT", "ACGTTTTT", 3, 1}, // one leading insertion
		{"ACGT", "TTTTTTTT", 3, 3},  // three substitutions, T matches
		{"ACGT", "TTTTTTTT", 2, -1}, // ...but not within k=2
		{"", "ACGT", 2, 0},
	}
	for _, c := range cases {
		if got := LandauVishkin([]byte(c.q), []byte(c.r), c.k); got != c.want {
			t.Errorf("LandauVishkin(%q, %q, %d) = %d, want %d", c.q, c.r, c.k, got, c.want)
		}
	}
}

func TestBoundedAlignBasics(t *testing.T) {
	d, cig, refUsed := BoundedAlign([]byte("ACGT"), []byte("ACGTTTT"), 3)
	if d != 0 || cig.String() != "4M" || refUsed != 4 {
		t.Fatalf("exact: d=%d cigar=%s refUsed=%d", d, cig, refUsed)
	}
	d, cig, _ = BoundedAlign([]byte("ACGT"), []byte("AGGTTTT"), 3)
	if d != 1 || cig.String() != "4M" {
		t.Fatalf("mismatch: d=%d cigar=%s", d, cig)
	}
	d, cig, refUsed = BoundedAlign([]byte("ACGT"), []byte("ACGGTTT"), 3)
	if d != 1 {
		t.Fatalf("indel: d=%d cigar=%s refUsed=%d", d, cig, refUsed)
	}
	d, _, _ = BoundedAlign([]byte("AAAA"), []byte("TTTTTTT"), 2)
	if d != -1 {
		t.Fatalf("hopeless: d=%d, want -1", d)
	}
}

func TestBoundedAlignCigarConsistency(t *testing.T) {
	// The CIGAR must consume exactly the query and refUsed bases, and its
	// edit count must equal the reported distance.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		q := randSeq(rng, 30+rng.Intn(40))
		ref := mutateSeq(rng, q, 4)
		ref = append(ref, randSeq(rng, 8)...)
		d, cig, refUsed := BoundedAlign(q, ref, 8)
		if d < 0 {
			continue
		}
		if cig.ReadLen() != len(q) {
			t.Fatalf("cigar %s consumes %d query bases, want %d", cig, cig.ReadLen(), len(q))
		}
		if cig.RefLen() != refUsed {
			t.Fatalf("cigar %s consumes %d ref bases, refUsed=%d", cig, cig.RefLen(), refUsed)
		}
		// Count edits by replaying the cigar.
		edits, qi, ri := 0, 0, 0
		for _, e := range cig {
			switch e.Op {
			case CigarMatch:
				for x := 0; x < e.Len; x++ {
					if q[qi] != ref[ri] {
						edits++
					}
					qi++
					ri++
				}
			case CigarIns:
				edits += e.Len
				qi += e.Len
			case CigarDel:
				edits += e.Len
				ri += e.Len
			}
		}
		if edits != d {
			t.Fatalf("cigar %s implies %d edits, distance is %d", cig, edits, d)
		}
	}
}

func TestLVAgreesWithBoundedAlignAndDP(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		q := randSeq(rng, 10+rng.Intn(60))
		var ref []byte
		if rng.Intn(4) == 0 {
			ref = randSeq(rng, len(q)+10) // unrelated
		} else {
			ref = mutateSeq(rng, q, rng.Intn(6))
			ref = append(ref, randSeq(rng, 10)...)
		}
		k := rng.Intn(9)
		want := semiGlobal(q, ref)
		if want > k {
			want = -1
		}
		if got := LandauVishkin(q, ref, k); got != want {
			t.Fatalf("LV(%q, %q, %d) = %d, want %d", q, ref, k, got, want)
		}
		gotBA, _, _ := BoundedAlign(q, ref, k)
		if gotBA != want {
			t.Fatalf("BoundedAlign(%q, %q, %d) = %d, want %d", q, ref, k, gotBA, want)
		}
	}
}

func TestLandauVishkinPropertyExactMatchWindows(t *testing.T) {
	// Any substring of a genome aligns with distance 0 against its own
	// window, and mutating b bases gives distance <= b.
	g, err := genome.Synthesize(genome.DefaultSyntheticConfig(20_000, 13))
	if err != nil {
		t.Fatal(err)
	}
	f := func(rawPos uint32, rawMut uint8) bool {
		readLen := 60
		pos := int64(rawPos) % (g.Len() - int64(readLen) - 8)
		window, err := g.Slice(pos, readLen+8)
		if err != nil {
			return false
		}
		q := append([]byte{}, window[:readLen]...)
		if LandauVishkin(q, window, 8) != 0 {
			return false
		}
		// Mutate up to 4 distinct positions.
		muts := int(rawMut % 5)
		rng := rand.New(rand.NewSource(int64(rawPos)))
		for i := 0; i < muts; i++ {
			p := rng.Intn(len(q))
			q[p] = "ACGT"[rng.Intn(4)]
		}
		d := LandauVishkin(q, window, 8)
		return d >= 0 && d <= muts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = "ACGT"[rng.Intn(4)]
	}
	return s
}

// mutateSeq applies up to edits random substitutions/insertions/deletions.
func mutateSeq(rng *rand.Rand, s []byte, edits int) []byte {
	out := append([]byte{}, s...)
	for i := 0; i < edits && len(out) > 1; i++ {
		p := rng.Intn(len(out))
		switch rng.Intn(3) {
		case 0:
			out[p] = "ACGT"[rng.Intn(4)]
		case 1:
			out = append(out[:p], out[p+1:]...)
		case 2:
			out = append(out[:p], append([]byte{"ACGT"[rng.Intn(4)]}, out[p:]...)...)
		}
	}
	return out
}

// FuzzBoundedAlignBand checks the band the SNAP aligner re-aligns its winner
// with: when Landau-Vishkin finds distance d ≤ K, BoundedAlign banded at d
// must return exactly what the K band returns — distance, CIGAR and
// reference span — and that distance must be d. Input bytes map onto ACGT
// (dnaOf) so matches, and hence alignments within the band, are common.
func FuzzBoundedAlignBand(f *testing.F) {
	f.Add([]byte("ACGTACGTTGCA"), []byte("ACGTACCTTGCAGG"), uint8(4))
	f.Add([]byte("AAAAAAAAAA"), []byte("AAAAAAAAAAAA"), uint8(12))
	f.Add([]byte("ACGTTTACGT"), []byte("ACGTACGT"), uint8(3))
	f.Fuzz(func(t *testing.T, rawQuery, rawRef []byte, rawK uint8) {
		const maxLen = 160
		query := dnaOf(rawQuery, maxLen)
		ref := dnaOf(rawRef, maxLen+32)
		k := int(rawK % 33)
		d := LandauVishkin(query, ref, k)
		if d < 0 {
			return
		}
		wideDist, wideCigar, wideUsed := BoundedAlign(query, ref, k)
		dist, cigar, used := BoundedAlign(query, ref, d)
		if dist != wideDist || cigar.String() != wideCigar.String() || used != wideUsed {
			t.Fatalf("band %d: (%d, %s, %d); band %d: (%d, %s, %d)",
				d, dist, cigar, used, k, wideDist, wideCigar, wideUsed)
		}
		if dist != d {
			t.Fatalf("BoundedAlign distance %d, Landau-Vishkin %d (q=%s ref=%s k=%d)", dist, d, query, ref, k)
		}
	})
}

// dnaOf maps up to n bytes of raw onto ACGT: base letters stay, any other
// byte becomes the base its low two bits pick.
func dnaOf(raw []byte, n int) []byte {
	s := make([]byte, min(len(raw), n))
	for i := range s {
		if s[i] = raw[i]; genome.Code(s[i]) > 3 {
			s[i] = "ACGT"[raw[i]&3]
		}
	}
	return s
}

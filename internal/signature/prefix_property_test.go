package signature

import (
	"fmt"
	"math/rand"
	"testing"

	"dime/internal/entity"
	"dime/internal/rules"
	"dime/internal/sim"
	"dime/internal/tokenize"
)

// TestPrefixLemmaDirect checks the prefix-filter lemma at the token level
// for every set-similarity family: for random token sets a, b and random
// thresholds, if the similarity meets the threshold then the per-side
// prefixes (under a shared document-frequency ordering) intersect.
func TestPrefixLemmaDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	universe := make([]string, 40)
	for i := range universe {
		universe[i] = fmt.Sprintf("tok%02d", i)
	}
	randSet := func() []string {
		n := 1 + rng.Intn(10)
		perm := rng.Perm(len(universe))[:n]
		out := make([]string, n)
		for i, j := range perm {
			out[i] = universe[j]
		}
		return out
	}

	for trial := 0; trial < 3000; trial++ {
		a, b := randSet(), randSet()
		ids := internDocs(a, b, randSet(), randSet())
		sa, sb := ids[0], ids[1]
		if len(sa) != len(a) || len(sb) != len(b) {
			t.Fatalf("trial %d: interning changed the set sizes", trial)
		}

		check := func(fn rules.Func, value, theta float64) {
			if value < theta {
				return
			}
			ta := overlapBound(fn, theta, len(a))
			tb := overlapBound(fn, theta, len(b))
			if ta < 1 || tb < 1 {
				return // universal signature: never prunes
			}
			ka, kb := len(a)-ta+1, len(b)-tb+1
			if ka <= 0 || kb <= 0 {
				t.Fatalf("trial %d %v: satisfied pair with empty prefix (value=%v θ=%v)", trial, fn, value, theta)
			}
			if !sharesIDs(sa[:ka], sb[:kb]) {
				t.Fatalf("trial %d %v: sim=%v ≥ θ=%v but prefixes disjoint\na=%v\nb=%v",
					trial, fn, value, theta, sa[:ka], sb[:kb])
			}
		}

		ov := float64(sim.Overlap(a, b))
		check(rules.Overlap, ov, float64(1+rng.Intn(5)))
		theta := 0.05 + rng.Float64()*0.9
		check(rules.Jaccard, sim.Jaccard(a, b), theta)
		check(rules.Dice, sim.Dice(a, b), theta)
		check(rules.Cosine, sim.Cosine(a, b), theta)
	}
}

// internDocs interns docs as one signature space, as Context does for an
// attribute, and returns each document's distinct ids in global order.
func internDocs(docs ...[]string) [][]int32 {
	b := tokenize.NewBuilder(len(docs), 0)
	for _, d := range docs {
		b.Add(d)
	}
	_, ids := b.Build()
	return ids
}

func sharesIDs(a, b []int32) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// TestGramPrefixLemmaDirect checks the q-gram prefix lemma: strings within
// edit distance b share a gram among their first q·b+1 grams (when both have
// enough grams for the bound to be meaningful).
func TestGramPrefixLemmaDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(54321))
	alphabet := []rune("abcdefgh")
	randStr := func(n int) string {
		out := make([]rune, n)
		for i := range out {
			out[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(out)
	}
	const q = 2
	for trial := 0; trial < 2000; trial++ {
		s1 := randStr(6 + rng.Intn(12))
		// Derive s2 by a few random edits so small distances actually occur.
		s2 := []rune(s1)
		edits := rng.Intn(4)
		for e := 0; e < edits && len(s2) > 1; e++ {
			i := rng.Intn(len(s2))
			switch rng.Intn(3) {
			case 0:
				s2[i] = alphabet[rng.Intn(len(alphabet))]
			case 1:
				s2 = append(s2[:i], s2[i+1:]...)
			default:
				s2 = append(s2[:i], append([]rune{alphabet[rng.Intn(len(alphabet))]}, s2[i:]...)...)
			}
		}
		str2 := string(s2)
		d := sim.EditDistance(s1, str2)
		for bound := d; bound <= d+2; bound++ {
			g1 := tokenize.Dedup(tokenize.QGrams(s1, q))
			g2 := tokenize.Dedup(tokenize.QGrams(str2, q))
			k := q*bound + 1
			if len(g1) < k || len(g2) < k {
				continue // vacuous: the scheme emits Universal here
			}
			ids := internDocs(g1, g2)
			p1, p2 := ids[0][:k], ids[1][:k]
			if !sharesIDs(p1, p2) {
				t.Fatalf("trial %d: ed(%q,%q)=%d ≤ %d but gram prefixes disjoint", trial, s1, str2, d, bound)
			}
		}
	}
}

// TestForEachMapDedupPath exercises the hash-set dedup branch used for very
// large groups by running the same group through both paths and comparing.
func TestForEachMapDedupPath(t *testing.T) {
	schema := entity.MustSchema("Tags")
	cfg := rules.NewConfig(schema)
	g := entity.NewGroup("g", schema)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		tags := []string{fmt.Sprintf("t%d", rng.Intn(12)), fmt.Sprintf("t%d", rng.Intn(12)), fmt.Sprintf("u%d", i/3)}
		e, err := entity.NewEntity(schema, fmt.Sprintf("e%02d", i), [][]string{tags})
		if err != nil {
			t.Fatal(err)
		}
		g.MustAdd(e)
	}
	rs := rules.RuleSet{
		Positive: []rules.Rule{rules.MustParse(cfg, "p", rules.Positive, "ov(Tags) >= 2")},
		Negative: []rules.Rule{rules.MustParse(cfg, "n", rules.Negative, "ov(Tags) = 0")},
	}
	recs, err := cfg.NewRecords(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(cfg, recs, rs)
	ix := BuildPositive(ctx, rs.Positive[0], recs)

	fromBitset := ix.Candidates()

	old := bitsetLimit
	bitsetLimit = 1 // force the map path
	defer func() { bitsetLimit = old }()
	ix2 := BuildPositive(ctx, rs.Positive[0], recs)
	fromMap := ix2.Candidates()

	if len(fromBitset) != len(fromMap) {
		t.Fatalf("bitset path %d candidates, map path %d", len(fromBitset), len(fromMap))
	}
	for i := range fromBitset {
		if fromBitset[i] != fromMap[i] {
			t.Fatalf("candidate %d differs: %+v vs %+v", i, fromBitset[i], fromMap[i])
		}
	}
}

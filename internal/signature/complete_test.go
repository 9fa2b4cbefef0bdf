package signature

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dime/internal/entity"
	"dime/internal/rules"
	"dime/internal/sim"
)

// similarPredicates lists every similar-side set and edit predicate of
// verifySchema: ov/jac/dice/cos ≥ θ on the element and word attributes,
// eds ≥ θ and ed ≤ k on the short string and the text.
func similarPredicates() []rules.Predicate {
	var ps []rules.Predicate
	for _, p := range verifyPredicates() {
		if similarSide(p) {
			ps = append(ps, p)
		}
	}
	return ps
}

// editEntity is verifyEntity with a Name drawn near one of a few stems:
// random substitutions, inserts and deletes, often at the ends, so pairs
// lie at small edit distances with every shift a segment can take; one
// Name in a few carries a non-ASCII rune or an invalid UTF-8 byte.
func editEntity(rng *rand.Rand, id string) *entity.Entity {
	e := verifyEntity(rng, id, rng.Intn(4) == 0)
	stems := []string{"abcabcab", "abcab", "bacaba", "aabbcc", "abcabcabcabc"}
	name := []rune(stems[rng.Intn(len(stems))])
	alphabet := []rune("abcÉ")
	for k := rng.Intn(4); k > 0; k-- {
		at := rng.Intn(len(name) + 1)
		if rng.Intn(2) == 0 {
			at = rng.Intn(2) * len(name) // an end: the largest shifts
		}
		switch rng.Intn(3) {
		case 0:
			name = append(name[:at], append([]rune{alphabet[rng.Intn(len(alphabet))]}, name[at:]...)...)
		case 1:
			if at < len(name) {
				name = append(name[:at], name[at+1:]...)
			}
		default:
			if at < len(name) {
				name[at] = alphabet[rng.Intn(len(alphabet))]
			}
		}
	}
	s := string(name)
	if rng.Intn(6) == 0 {
		s += "\xff"
	}
	vals := e.Values
	vals[2] = []string{s}
	return entity.MustNewEntity(verifySchema, id, vals)
}

// candidateSet collects the unordered pairs a candidate stream yields.
type candidateSet map[[2]int]bool

func (cs candidateSet) add(c Candidate) { cs[[2]int{c.I, c.J}] = true }

// FuzzPositiveFilterComplete checks that the positive filter is lossless:
// for random small groups and rules over ov/jac/dice/cos/eds/ed, every
// pair the rule accepts comes out of ForEach, and out of Add when the
// records after the first few arrive one at a time. Thresholds are the
// fuzzed one, ties 1 − k/m, every similarity the pairs themselves produce,
// and each of those ± sim.Epsilon/2. A rule is one predicate, or two, so
// the segment index also runs as the base of a longer rule.
func FuzzPositiveFilterComplete(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3), 0.9)
	f.Add(int64(2), uint8(9), uint8(0), 0.75)
	f.Add(int64(3), uint8(7), uint8(7), 0.5)
	f.Add(int64(4), uint8(9), uint8(5), 2.0)
	f.Add(int64(5), uint8(6), uint8(2), 0.0)
	f.Add(int64(6), uint8(8), uint8(4), float64(1<<32)) // ed ≤ 2³²: every pair
	cfg := verifyConfig()
	preds := similarPredicates()
	f.Fuzz(func(t *testing.T, seed int64, n, ranked uint8, theta float64) {
		rng := rand.New(rand.NewSource(seed))
		g := entity.NewGroup("fuzz", verifySchema)
		for i := 0; i < 2+int(n%9); i++ {
			g.MustAdd(editEntity(rng, fmt.Sprintf("e%d", i)))
		}
		recs, err := cfg.NewRecords(g)
		if err != nil {
			t.Fatal(err)
		}
		first := int(ranked) % (len(recs) + 1)
		thresholds := func(p rules.Predicate) []float64 {
			var ts []float64
			if !math.IsNaN(theta) && !math.IsInf(theta, 0) {
				ts = append(ts, math.Abs(theta))
			}
			m := 1 + rng.Intn(14)
			ts = append(ts, 1-float64(rng.Intn(m+1))/float64(m))
			for i := range recs {
				for j := i + 1; j < len(recs); j++ {
					ts = append(ts, p.Similarity(recs[i], recs[j]))
				}
			}
			out := make([]float64, 0, 3*len(ts))
			for _, th := range ts {
				if p.Fn == rules.EditDist || p.Fn == rules.Overlap {
					out = append(out, math.Trunc(th))
					continue
				}
				out = append(out, th, th-sim.Epsilon/2, th+sim.Epsilon/2)
			}
			slices.Sort(out)
			return slices.Compact(out)
		}
		for _, p := range preds {
			for _, th := range thresholds(p) {
				p.Threshold = th
				rule := rules.Rule{Name: "p", Kind: rules.Positive, Predicates: []rules.Predicate{p}}
				checkComplete(t, cfg, recs, first, rule)
				q := preds[rng.Intn(len(preds))]
				qs := thresholds(q)
				q.Threshold = qs[rng.Intn(len(qs))]
				rule.Predicates = append(rule.Predicates, q)
				checkComplete(t, cfg, recs, first, rule)
			}
		}
	})
}

// checkComplete fails t when a pair the rule accepts is missing from the
// positive index's candidates: from ForEach over every record, and from
// ForEach over the first records followed by Add for each later one.
func checkComplete(t *testing.T, cfg *rules.Config, recs []*rules.Record, first int, rule rules.Rule) {
	t.Helper()
	rs := rules.RuleSet{Positive: []rules.Rule{rule}}
	batch := candidateSet{}
	BuildPositive(NewContext(cfg, recs, rs), rule, recs).ForEach(batch.add)

	grown := candidateSet{}
	ctx := NewContext(cfg, recs[:first:first], rs)
	ix := BuildPositive(ctx, rule, recs[:first])
	ix.ForEach(grown.add)
	for _, r := range recs[first:] {
		ctx.Append(r)
		prev := -1
		for _, c := range ix.Add(ctx, r) {
			if c.J != r.Index || c.I <= prev {
				t.Fatalf("%v: Add of record %d returned %+v out of order", rule.Predicates, r.Index, c)
			}
			prev = c.I
			grown.add(c)
		}
	}

	for i := range recs {
		for j := i + 1; j < len(recs); j++ {
			if !rule.Eval(recs[i], recs[j]) {
				continue
			}
			pair := [2]int{i, j}
			for path, got := range map[string]candidateSet{"ForEach": batch, "Add": grown} {
				if !got[pair] {
					t.Fatalf("%s drops (%d, %d), which satisfies %v: %s / %s",
						path, i, j, rule.Predicates, values(recs[i]), values(recs[j]))
				}
			}
		}
	}
}

func values(r *rules.Record) string {
	parts := make([]string, len(r.Joined))
	for i, v := range r.Joined {
		parts[i] = fmt.Sprintf("%q", v)
	}
	return strings.Join(parts, " ")
}

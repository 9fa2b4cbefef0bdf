package signature

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dime/internal/entity"
	"dime/internal/rules"
	"dime/internal/sim"
)

// verifySchema has one attribute per token shape: element tokens (List),
// word tokens (Text) and a short string for the edit functions (Name).
var verifySchema = entity.MustSchema("List", "Text", "Name")

func verifyConfig() *rules.Config {
	return rules.NewConfig(verifySchema).WithTokenMode("Text", rules.WordsMode)
}

// verifyPredicates lists every verifiable function on the attributes it
// applies to, at GE and LE.
func verifyPredicates() []rules.Predicate {
	var ps []rules.Predicate
	for _, op := range []rules.Op{rules.GE, rules.LE} {
		for _, fn := range []rules.Func{rules.Overlap, rules.Jaccard, rules.Dice, rules.Cosine} {
			ps = append(ps,
				rules.Predicate{Attr: 0, AttrName: "List", Fn: fn, Op: op},
				rules.Predicate{Attr: 1, AttrName: "Text", Fn: fn, Op: op})
		}
		for _, fn := range []rules.Func{rules.EditSim, rules.EditDist} {
			ps = append(ps,
				rules.Predicate{Attr: 2, AttrName: "Name", Fn: fn, Op: op},
				rules.Predicate{Attr: 1, AttrName: "Text", Fn: fn, Op: op})
		}
	}
	return ps
}

// verifyEntity draws an entity from a small vocabulary, so tokens repeat
// across entities; late entities also draw from words no ranked entity
// holds, so their ids come after every ranked one.
func verifyEntity(rng *rand.Rand, id string, late bool) *entity.Entity {
	vocab := []string{"ann", "bo", "cy", "dee", "Éva", "fay", "gus"}
	if late {
		vocab = append(vocab, "zed", "yan", "xi", "wu", "vic")
	}
	pick := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = vocab[rng.Intn(len(vocab))]
		}
		return out
	}
	list := pick(rng.Intn(5))
	text := strings.Join(pick(rng.Intn(6)), " ")
	name := strings.Join(pick(1+rng.Intn(2)), "")
	e, err := entity.NewEntity(verifySchema, id, [][]string{list, {text}, {name}})
	if err != nil {
		panic(err)
	}
	return e
}

// stringPath is r without its compiled rune lengths and id views, the
// record predicates verify on token strings and fresh rune counts.
func stringPath(r *rules.Record) *rules.Record {
	return &rules.Record{Entity: r.Entity, Index: r.Index, Tokens: r.Tokens, Joined: r.Joined, Nodes: r.Nodes}
}

// FuzzVerifyIDPath checks the verification fast path against the string
// path: on records compiled through a Context — ranked ones from NewContext
// and late ones through Append — every set and edit predicate, GE and LE,
// gives the Eval verdict of comparing the string-path Similarity with
// AtLeast/AtMost. Thresholds are the fuzzed one plus every similarity the
// pairs themselves produce, so exact ties are covered.
func FuzzVerifyIDPath(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(3), 0.5)
	f.Add(int64(2), uint8(0), uint8(5), 2.0)
	f.Add(int64(3), uint8(9), uint8(0), 0.9)
	f.Add(int64(4), uint8(3), uint8(4), 0.0)
	cfg := verifyConfig()
	preds := verifyPredicates()
	f.Fuzz(func(t *testing.T, seed int64, ranked, late uint8, theta float64) {
		rng := rand.New(rand.NewSource(seed))
		g := entity.NewGroup("fuzz", verifySchema)
		for i := 0; i < int(ranked%10); i++ {
			g.MustAdd(verifyEntity(rng, fmt.Sprintf("r%d", i), false))
		}
		recs, err := cfg.NewRecords(g)
		if err != nil {
			t.Fatal(err)
		}
		rs := rules.RuleSet{Positive: []rules.Rule{{Name: "all", Kind: rules.Positive, Predicates: preds}}}
		ctx := NewContext(cfg, recs, rs)
		for i := 0; i < int(late%8); i++ {
			rec, err := cfg.NewRecord(verifyEntity(rng, fmt.Sprintf("l%d", i), true))
			if err != nil {
				t.Fatal(err)
			}
			rec.Index = len(recs)
			recs = append(recs, rec)
			ctx.Append(rec)
		}
		for _, r := range recs {
			for attr := 0; attr < 2; attr++ {
				if r.IDs[attr].Space == nil {
					t.Fatalf("record %s attribute %d has no id view", r.Entity.ID, attr)
				}
			}
		}
		plain := make([]*rules.Record, len(recs))
		for i, r := range recs {
			plain[i] = stringPath(r)
		}
		for _, p := range preds {
			// The pair similarities double as thresholds: exact ties.
			sims := make([]float64, 0, len(recs)*len(recs))
			thetas := map[float64]bool{}
			if !math.IsNaN(theta) && !math.IsInf(theta, 0) {
				thetas[math.Abs(theta)] = true
			}
			for i := range recs {
				for j := range recs {
					s := p.Similarity(plain[i], plain[j])
					if got := p.Similarity(recs[i], recs[j]); !sim.Eq(got, s) {
						t.Fatalf("%v on (%v, %v): Similarity = %v, string path = %v",
							p, recs[i].Entity.Values, recs[j].Entity.Values, got, s)
					}
					sims = append(sims, s)
					thetas[s] = true
				}
			}
			for th := range thetas {
				p.Threshold = th
				if p.Fn == rules.EditDist {
					p.Threshold = math.Trunc(th)
				}
				for k, s := range sims {
					i, j := k/len(recs), k%len(recs)
					want := sim.AtMost(s, p.Threshold)
					if p.Op == rules.GE {
						want = sim.AtLeast(s, p.Threshold)
					}
					if got := p.Eval(recs[i], recs[j]); got != want {
						t.Fatalf("%v on (%v, %v): Eval = %v, string-path Similarity = %v",
							p, recs[i].Entity.Values, recs[j].Entity.Values, got, s)
					}
				}
			}
		}
	})
}

// TestIDsNeverCrossContexts: two contexts intern different tokens to the
// same ids, so a pair with one record from each must verify on its token
// strings, not on ids.
func TestIDsNeverCrossContexts(t *testing.T) {
	cfg := verifyConfig()
	compile := func(list string) *rules.Record {
		e, err := entity.NewEntity(verifySchema, list, [][]string{{list}, {list}, {list}})
		if err != nil {
			t.Fatal(err)
		}
		g := entity.NewGroup(list, verifySchema)
		g.MustAdd(e)
		recs, err := cfg.NewRecords(g)
		if err != nil {
			t.Fatal(err)
		}
		rs := rules.RuleSet{Positive: []rules.Rule{{Name: "ov", Kind: rules.Positive, Predicates: verifyPredicates()[:2]}}}
		NewContext(cfg, recs, rs)
		return recs[0]
	}
	a, b := compile("ann"), compile("bo")
	for attr := 0; attr < 2; attr++ {
		va, vb := a.IDs[attr], b.IDs[attr]
		if va.Space == nil || vb.Space == nil || va.Space == vb.Space {
			t.Fatalf("attribute %d: want id views from two spaces, got %p and %p", attr, va.Space, vb.Space)
		}
		if len(va.IDs) != 1 || len(vb.IDs) != 1 || va.IDs[0] != vb.IDs[0] {
			t.Fatalf("attribute %d: want one shared id number, got %v and %v", attr, va.IDs, vb.IDs)
		}
		p := rules.Predicate{Attr: attr, Fn: rules.Overlap, Op: rules.GE, Threshold: 1}
		if p.Eval(a, b) {
			t.Errorf("attribute %d: %q and %q share no token, but Eval compared them on ids", attr, "ann", "bo")
		}
	}
}

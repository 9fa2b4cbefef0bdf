package rules

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"dime/internal/datagen"
	"dime/internal/entity"
	"dime/internal/sim"
)

// editEvalRecords compiles DBGen names (whose clusters already carry
// single-edit perturbations) plus multi-byte and beyond-stack-buffer
// variants of a few of them.
func editEvalRecords(t *testing.T) []*Record {
	t.Helper()
	g := datagen.DBGen(datagen.DBGenOptions{NumEntities: 30, ErrorRate: 0.2, Seed: 7})
	var names []string
	for _, e := range g.Entities {
		names = append(names, e.Values[0][0])
	}
	for _, n := range names[:4] {
		names = append(names,
			strings.Replace(n, "a", "ä", 1),
			"Zoë "+n,
			strings.Repeat(n+" ", 5),
			strings.Repeat(n+" ", 4)+n+"x",
		)
	}
	cfg := NewConfig(datagen.DBGenSchema)
	recs := make([]*Record, len(names))
	for i, n := range names {
		e, err := entity.NewEntity(datagen.DBGenSchema, fmt.Sprintf("r%d", i), [][]string{{n}, {"t"}, {"c"}, {"0"}})
		if err != nil {
			t.Fatal(err)
		}
		if recs[i], err = cfg.NewRecord(e); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// TestEditPredicateEvalMatchesSimilarity checks that Eval classifies every
// pair exactly as comparing Similarity against the threshold. Rule
// generation places thresholds at Similarity values of example pairs
// (Theorem 3), so the thresholds induced by the pairs themselves — exact
// float ties — are tested alongside fixed ones.
func TestEditPredicateEvalMatchesSimilarity(t *testing.T) {
	recs := editEvalRecords(t)
	eds := Predicate{Attr: 0, AttrName: "Name", Fn: EditSim}
	// Similarity per function, computed once for the pairs i ≤ j.
	sims := map[Func][][]float64{}
	for _, fn := range []Func{EditSim, EditDist} {
		p := Predicate{Attr: 0, Fn: fn}
		m := make([][]float64, len(recs))
		for i := range recs {
			for j := i; j < len(recs); j++ {
				m[i] = append(m[i], p.Similarity(recs[i], recs[j]))
			}
		}
		sims[fn] = m
	}
	seen := map[float64]bool{0: true, 1: true, 0.5: true, 0.9: true}
	for _, row := range sims[EditSim] {
		for _, s := range row {
			seen[s] = true
		}
	}
	var thresholds []float64
	for th := range seen {
		thresholds = append(thresholds, th)
	}
	sort.Float64s(thresholds)

	check := func(p Predicate, want func(s float64) bool) {
		t.Helper()
		for i := range recs {
			for k, s := range sims[p.Fn][i] {
				j := i + k
				if got := p.Eval(recs[i], recs[j]); got != want(s) {
					t.Fatalf("%s on (%q, %q): Eval = %v, Similarity = %v",
						p, recs[i].Joined[0], recs[j].Joined[0], got, s)
				}
			}
		}
	}
	for _, th := range thresholds {
		ge, le := eds, eds
		ge.Op, ge.Threshold = GE, th
		le.Op, le.Threshold = LE, th
		check(ge, func(s float64) bool { return sim.AtLeast(s, th) })
		check(le, func(s float64) bool { return sim.AtMost(s, th) })
	}
	for _, bound := range []float64{0, 1, 2, 3, 5, 8, 40} {
		ge := Predicate{Attr: 0, AttrName: "Name", Fn: EditDist, Op: GE, Threshold: bound}
		le := ge
		le.Op = LE
		check(ge, func(d float64) bool { return d >= bound })
		check(le, func(d float64) bool { return d <= bound })
	}
}

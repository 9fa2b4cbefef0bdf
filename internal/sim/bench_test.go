package sim

import "testing"

// editPredicatePairs are DBGen-style names ("Given Surname NNN" with one
// typo, or unrelated) plus one non-ASCII pair; all fit the stack buffer.
var editPredicatePairs = []struct{ name, a, b string }{
	{"typo", "Grace Hopper 417", "Grace Hoper 417"},
	{"distinct", "Grace Hopper 417", "Alan Turing 902"},
	{"non-ascii", "Zoë Ångström 042", "Zoe Angström 042"},
}

// editVerdict keeps the benchmarked calls from being optimized away.
var editVerdict bool

// BenchmarkEditPredicate measures the verdicts the DBGen rules evaluate per
// candidate pair: eds(Name) >= 0.9 (positive rule) and eds(Name) <= 0.5
// (negative rule). Strings within the stack buffer verify with 0 allocs/op.
func BenchmarkEditPredicate(b *testing.B) {
	for _, p := range editPredicatePairs {
		b.Run("ge-0.9/"+p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				editVerdict = EditSimilarityAtLeast(p.a, p.b, 0.9)
			}
		})
		b.Run("le-0.5/"+p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				editVerdict = EditSimilarityAtMost(p.a, p.b, 0.5)
			}
		})
	}
}

// TestEditPredicateAllocationFree pins the 0 allocs/op that
// BenchmarkEditPredicate reports.
func TestEditPredicateAllocationFree(t *testing.T) {
	for _, p := range editPredicatePairs {
		allocs := testing.AllocsPerRun(100, func() {
			EditSimilarityAtLeast(p.a, p.b, 0.9)
			EditSimilarityAtMost(p.a, p.b, 0.5)
			EditDistance(p.a, p.b)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", p.name, allocs)
		}
	}
}

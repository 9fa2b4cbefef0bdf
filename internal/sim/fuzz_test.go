package sim

import (
	"strings"
	"testing"
)

// FuzzEditDistance cross-checks the edit-distance entry points against the
// reference DP (refEditDistance) and the Levenshtein metric axioms. The
// banded kernel (EditDistanceBounded, and EditDistance on top of it) has
// early exits, band bookkeeping and a stack-buffer/heap split, and the
// threshold verdicts (EditSimilarityAtLeast/AtMost) turn a float threshold
// into an integer bound, so agreement with the plain DP — at fuzzed
// thresholds and at the exact ties 1 − d/m — is the property most worth
// fuzzing.
func FuzzEditDistance(f *testing.F) {
	f.Add("", "", 0, 1.0)
	f.Add("kitten", "sitting", 3, 0.5)
	f.Add("VLDB", "Very Large Data Bases", 5, 0.2)
	f.Add("sigmod", "sigmod", 1, 1.0)
	f.Add("a", "abcdefgh", 2, 0.125)
	f.Add("abcdefghij", "abcdefghiX", 1, 0.9) // exact tie: 1 − 1/10
	f.Add("", "abc", 2, 0.0)
	f.Add("héllo", "hello", 1, 0.8) // multi-byte runes
	f.Add("日本語", "日本", 1, 2.0/3)
	f.Add("a\xffb", "a\xfeb", 0, 1.0) // invalid UTF-8 collapses to U+FFFD
	f.Add("ICDE 2018", "ICDE2018", 0, 0.9)
	long := strings.Repeat("Ada Lovelace 042 ", 6) // past the stack buffer
	f.Add(long, long[1:]+"x", 4, 0.98)
	f.Fuzz(func(t *testing.T, a, b string, bound int, theta float64) {
		const maxLen = 256
		if len(a) > maxLen || len(b) > maxLen {
			return // keep the O(|a|·|b|) DP cheap
		}
		bound %= 16
		if bound < 0 {
			bound = -bound
		}

		d := refEditDistance(a, b)
		if got := EditDistance(a, b); got != d {
			t.Fatalf("EditDistance(%q, %q) = %d, reference DP says %d", a, b, got, d)
		}
		la, lb := len([]rune(a)), len([]rune(b))
		longest, diff := max(la, lb), la-lb
		if diff < 0 {
			diff = -diff
		}

		// Metric axioms.
		if d < diff || d > longest {
			t.Fatalf("EditDistance(%q, %q) = %d outside [%d, %d]", a, b, d, diff, longest)
		}
		// Identity is over the rune decoding: invalid UTF-8 collapses to
		// U+FFFD, so compare the decoded forms, not the raw bytes.
		if (d == 0) != (string([]rune(a)) == string([]rune(b))) {
			t.Fatalf("EditDistance(%q, %q) = %d; zero iff rune-equal violated", a, b, d)
		}
		if rev := EditDistance(b, a); rev != d {
			t.Fatalf("EditDistance not symmetric: %d vs %d for %q, %q", d, rev, a, b)
		}

		// The banded verifier must agree with the reference DP on both
		// sides of the bound.
		bd, ok := EditDistanceBounded(a, b, bound)
		if ok {
			if bd != d {
				t.Fatalf("EditDistanceBounded(%q, %q, %d) = %d, reference DP says %d", a, b, bound, bd, d)
			}
			if d > bound {
				t.Fatalf("EditDistanceBounded(%q, %q, %d) reported ok but distance is %d", a, b, bound, d)
			}
		} else {
			if d <= bound {
				t.Fatalf("EditDistanceBounded(%q, %q, %d) gave up but distance is %d", a, b, bound, d)
			}
			if bd != bound+1 {
				t.Fatalf("EditDistanceBounded(%q, %q, %d) = %d on failure, want bound+1", a, b, bound, bd)
			}
		}
		if within := EditWithin(a, b, bound); within != (d <= bound) {
			t.Fatalf("EditWithin(%q, %q, %d) = %v, distance is %d", a, b, bound, within, d)
		}

		// Normalized similarity stays in [0, 1] and matches its definition.
		want := 1.0
		if longest > 0 {
			want = 1 - float64(d)/float64(longest)
		}
		s := EditSimilarity(a, b)
		if !AtLeast(s, 0) || !AtMost(s, 1) {
			t.Fatalf("EditSimilarity(%q, %q) = %g outside [0, 1]", a, b, s)
		}
		if !Eq(s, want) {
			t.Fatalf("EditSimilarity(%q, %q) = %g, want %g", a, b, s, want)
		}

		// Threshold verdicts equal comparing the reference similarity, at
		// the fuzzed threshold, at the exact ties around the distance, and
		// half an Epsilon off each tie, where only the tolerance decides.
		thresholds := []float64{theta, 0, 1}
		for k := max(d-1, 0); longest > 0 && k <= min(d+1, longest); k++ {
			tie := 1 - float64(k)/float64(longest)
			thresholds = append(thresholds, tie, tie-Epsilon/2, tie+Epsilon/2)
		}
		for _, th := range thresholds {
			if got := EditSimilarityAtLeast(a, b, th); got != AtLeast(want, th) {
				t.Fatalf("EditSimilarityAtLeast(%q, %q, %v) = %v, similarity %v", a, b, th, got, want)
			}
			if got := EditSimilarityAtMost(a, b, th); got != AtMost(want, th) {
				t.Fatalf("EditSimilarityAtMost(%q, %q, %v) = %v, similarity %v", a, b, th, got, want)
			}
		}
	})
}

package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestOverlap(t *testing.T) {
	cases := []struct {
		a, b []string
		want int
	}{
		{[]string{"a", "b", "c"}, []string{"b", "c", "d"}, 2},
		{[]string{"a"}, []string{"b"}, 0},
		{nil, []string{"a"}, 0},
		{nil, nil, 0},
		{[]string{"a", "a", "b"}, []string{"a"}, 1}, // duplicates count once
		{[]string{"x", "y"}, []string{"y", "x"}, 2},
	}
	for _, c := range cases {
		if got := Overlap(c.a, c.b); got != c.want {
			t.Errorf("Overlap(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestOverlapSymmetric(t *testing.T) {
	f := func(a, b []string) bool { return Overlap(a, b) == Overlap(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJaccard(t *testing.T) {
	if got := Jaccard([]string{"a", "b"}, []string{"b", "c"}); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("Jaccard = %v", got)
	}
	if Jaccard(nil, nil) != 1 {
		t.Fatal("Jaccard(∅,∅) should be 1")
	}
	if Jaccard(nil, []string{"a"}) != 0 {
		t.Fatal("Jaccard(∅,{a}) should be 0")
	}
	if Jaccard([]string{"a", "a"}, []string{"a"}) != 1 {
		t.Fatal("duplicates should not change Jaccard")
	}
}

func TestDice(t *testing.T) {
	if got := Dice([]string{"a", "b"}, []string{"b", "c"}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Dice = %v", got)
	}
	if Dice(nil, nil) != 1 {
		t.Fatal("Dice(∅,∅) = 1")
	}
}

func TestCosine(t *testing.T) {
	if got := Cosine([]string{"a", "b"}, []string{"b", "c"}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Cosine = %v", got)
	}
	if Cosine(nil, nil) != 1 {
		t.Fatal("Cosine(∅,∅) = 1")
	}
	if Cosine(nil, []string{"a"}) != 0 {
		t.Fatal("Cosine(∅,{a}) = 0")
	}
}

// Property: all normalized set similarities are within [0,1], symmetric, and
// equal 1 on identical non-empty sets.
func TestSetSimilarityProperties(t *testing.T) {
	fns := map[string]func(a, b []string) float64{
		"jaccard": Jaccard, "dice": Dice, "cosine": Cosine,
	}
	for name, fn := range fns {
		f := func(a, b []string) bool {
			v := fn(a, b)
			if v < 0 || v > 1+1e-12 {
				return false
			}
			if math.Abs(v-fn(b, a)) > 1e-12 {
				return false
			}
			return math.Abs(fn(a, a)-1) < 1e-12
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"", "abc", 3},
		{"abc", "", 3},
		{"日本語", "日本", 1},
		{"a", "b", 1},
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditDistanceBounded(t *testing.T) {
	if d, ok := EditDistanceBounded("kitten", "sitting", 3); !ok || d != 3 {
		t.Fatalf("bounded = %d, %v", d, ok)
	}
	if _, ok := EditDistanceBounded("kitten", "sitting", 2); ok {
		t.Fatal("distance 3 should exceed bound 2")
	}
	if d, ok := EditDistanceBounded("", "", 0); !ok || d != 0 {
		t.Fatalf("empty strings: %d, %v", d, ok)
	}
	if _, ok := EditDistanceBounded("a", "b", -1); ok {
		t.Fatal("negative bound should fail")
	}
	if _, ok := EditDistanceBounded("abc", "abcdefgh", 3); ok {
		t.Fatal("length gap beyond bound should fail fast")
	}
}

// refEditDistance is the test oracle for the banded kernel: the classic
// two-row Levenshtein DP over the rune decodings, with no band, early exit
// or stack buffer.
func refEditDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	prev := make([]int, len(ra)+1)
	cur := make([]int, len(ra)+1)
	for i := range prev {
		prev[i] = i
	}
	for j := 1; j <= len(rb); j++ {
		cur[0] = j
		for i := 1; i <= len(ra); i++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[i] = min(prev[i]+1, cur[i-1]+1, prev[i-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(ra)]
}

// Property: the banded computation agrees with the full DP for every bound,
// on short strings and on strings past the stack buffer.
func TestEditDistanceBoundedMatchesFull(t *testing.T) {
	alphabet := []rune("abcd")
	gen := func(seed int64) string {
		var b strings.Builder
		n := int(seed % 9)
		if n < 0 {
			n = -n
		}
		x := seed
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			b.WriteRune(alphabet[int(uint64(x)>>60)%len(alphabet)])
		}
		return b.String()
	}
	check := func(a, b string, bounds ...int) {
		full := refEditDistance(a, b)
		if d := EditDistance(a, b); d != full {
			t.Fatalf("EditDistance(%q,%q) = %d, full = %d", a, b, d, full)
		}
		for _, bound := range bounds {
			d, ok := EditDistanceBounded(a, b, bound)
			if full <= bound {
				if !ok || d != full {
					t.Fatalf("EditDistanceBounded(%q,%q,%d) = (%d,%v), full = %d", a, b, bound, d, ok, full)
				}
			} else if ok {
				t.Fatalf("EditDistanceBounded(%q,%q,%d) ok but full = %d", a, b, bound, full)
			}
		}
	}
	for s1 := int64(0); s1 < 40; s1++ {
		for s2 := int64(0); s2 < 40; s2++ {
			check(gen(s1*7+1), gen(s2*13+3), 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
		}
	}
	long := strings.Repeat("abcdé", stackRunes/5+2)
	for _, b := range []string{long, long[1:], long + "x", "x" + long, strings.ToUpper(long), "abc"} {
		check(long, b, 0, 1, 2, stackRunes, 2*stackRunes)
	}
}

func TestEditWithin(t *testing.T) {
	if !EditWithin("abc", "abd", 1) {
		t.Fatal("abc/abd within 1")
	}
	if EditWithin("abc", "xyz", 2) {
		t.Fatal("abc/xyz not within 2")
	}
	if EditWithin("a", "b", -1) {
		t.Fatal("negative threshold never matches")
	}
}

func TestEditSimilarity(t *testing.T) {
	if EditSimilarity("", "") != 1 {
		t.Fatal("empty strings have similarity 1")
	}
	if got := EditSimilarity("abcd", "abcx"); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("EditSimilarity = %v", got)
	}
	if got := EditSimilarity("abc", ""); got != 0 {
		t.Fatalf("EditSimilarity vs empty = %v", got)
	}
}

// Property: edit distance is a metric on short random strings: symmetric,
// zero iff equal, triangle inequality.
func TestEditDistanceMetricProperties(t *testing.T) {
	f := func(a, b, c string) bool {
		if len(a) > 12 {
			a = a[:12]
		}
		if len(b) > 12 {
			b = b[:12]
		}
		if len(c) > 12 {
			c = c[:12]
		}
		dab, dba := EditDistance(a, b), EditDistance(b, a)
		if dab != dba {
			return false
		}
		if (dab == 0) != (a == b) {
			// Note: invalid UTF-8 both decode to replacement runes; comparing
			// decoded forms keeps the property exact.
			if string([]rune(a)) == string([]rune(b)) {
				return dab == 0
			}
			return false
		}
		return EditDistance(a, c) <= dab+EditDistance(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSimilarityBoundSteps: SimilarityBound is the largest distance whose
// similarity passes the test, and as the longer length m grows it never
// drops and rises by at most one — the two facts length and segment
// filters sized from it rely on. Thresholds include exact ties 1 − d/m and
// values half an Epsilon around them.
func TestSimilarityBoundSteps(t *testing.T) {
	thetas := []float64{-0.5, 0, 1e-10, 0.3, 0.5, 0.6, 0.75, 0.9, 1, 1 + Epsilon/2, 1.5}
	for _, tie := range []float64{1 - 1.0/7, 1 - 2.0/9, 1 - 1.0/10, 1 - 3.0/11} {
		thetas = append(thetas, tie, tie-Epsilon/2, tie+Epsilon/2)
	}
	for _, theta := range thetas {
		for _, atLeast := range []bool{true, false} {
			prev := 0
			for m := 0; m <= 200; m++ {
				want := -1
				for d := 0; d <= m; d++ {
					s := 1.0
					if m > 0 {
						s = 1 - float64(d)/float64(m)
					}
					if (atLeast && AtLeast(s, theta)) || (!atLeast && !AtMost(s, theta)) {
						want = d
					}
				}
				got := SimilarityBound(m, theta, atLeast)
				if got != want {
					t.Fatalf("SimilarityBound(%d, %v, %v) = %d, want %d", m, theta, atLeast, got, want)
				}
				if m > 0 && prev >= 0 && (got < prev || got > prev+1) {
					t.Fatalf("θ=%v atLeast=%v: bound %d at m=%d after %d at m=%d", theta, atLeast, got, m, prev, m-1)
				}
				prev = got
			}
		}
	}
}

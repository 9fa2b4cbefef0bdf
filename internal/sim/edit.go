package sim

import "unicode/utf8"

// stackRunes is the rune length up to which EditDistanceBounded keeps the
// shorter string's decoding and its two DP rows in fixed-size stack buffers;
// only longer inputs allocate.
const stackRunes = 64

// EditDistance returns the Levenshtein distance between a and b: the banded
// kernel of EditDistanceBounded with the band opened to the longer string's
// rune length, O(|a|·|b|) time. Inputs are compared by their rune decoding,
// so invalid UTF-8 sequences collapse to U+FFFD before comparison (distinct
// invalid byte sequences are therefore equal).
func EditDistance(a, b string) int {
	na, nb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	d, _ := EditDistanceBoundedLen(a, b, na, nb, max(na, nb))
	return d
}

// EditWithin reports whether EditDistance(a, b) ≤ θ, using the banded dynamic
// program that the paper's cost model describes: O(θ·min(|a|,|b|)) time. It
// is the verification routine for character-based predicates. θ < 0 always
// reports false.
func EditWithin(a, b string, theta int) bool {
	return editWithinLen(a, b, utf8.RuneCountInString(a), utf8.RuneCountInString(b), theta)
}

// EditDistanceBounded computes the edit distance if it is ≤ bound, returning
// (distance, true); otherwise it returns (bound+1, false). The band around
// the diagonal has width 2·bound+1. It allocates nothing on the heap while
// the shorter string has at most stackRunes runes.
func EditDistanceBounded(a, b string, bound int) (int, bool) {
	return EditDistanceBoundedLen(a, b, utf8.RuneCountInString(a), utf8.RuneCountInString(b), bound)
}

// EditDistanceBoundedLen is EditDistanceBounded for callers that already
// know the rune lengths na of a and nb of b (compiled records carry them).
// Lengths that differ by more than bound are rejected in O(1), before
// either string is read.
func EditDistanceBoundedLen(a, b string, na, nb, bound int) (int, bool) {
	if bound < 0 {
		return 0, false
	}
	n, lb := na, nb
	if n > lb {
		a, b, n, lb = b, a, lb, n
	}
	if lb-n > bound {
		return bound + 1, false
	}
	if n == 0 {
		return lb, true
	}
	// The shorter string is decoded for random access; the longer one
	// streams through the outer loop.
	var runeBuf [stackRunes]rune
	var rowBuf [2 * (stackRunes + 1)]int
	ra, rows := runeBuf[:], rowBuf[:]
	if n > stackRunes {
		ra, rows = make([]rune, n), make([]int, 2*(n+1))
	}
	i := 0
	for _, r := range a {
		ra[i] = r
		i++
	}
	const inf = int(^uint(0) >> 2)
	prev, cur := rows[:n+1], rows[n+1:2*(n+1)]
	for i := 0; i <= min(bound, n); i++ {
		prev[i] = i // row 0 is only read inside the band
	}
	j := 0
	for _, rj := range b {
		j++
		lo := j - bound
		if lo < 1 {
			lo = 1
		}
		hi := j + bound
		if hi > n {
			hi = n
		}
		if lo > hi {
			return bound + 1, false
		}
		if lo == 1 {
			if j <= bound {
				cur[0] = j
			} else {
				cur[0] = inf
			}
		}
		if lo > 1 {
			cur[lo-1] = inf
		}
		rowMin := inf
		for i := lo; i <= hi; i++ {
			cost := 1
			if ra[i-1] == rj {
				cost = 0
			}
			up := inf
			if i <= j+bound-1 { // prev[i] inside band of row j-1
				up = prev[i]
			}
			diag := prev[i-1]
			left := cur[i-1]
			v := diag + cost
			if up+1 < v {
				v = up + 1
			}
			if left+1 < v {
				v = left + 1
			}
			cur[i] = v
			if v < rowMin {
				rowMin = v
			}
		}
		if hi < n {
			cur[hi+1] = inf
		}
		if rowMin > bound {
			return bound + 1, false
		}
		prev, cur = cur, prev
	}
	if prev[n] > bound {
		return bound + 1, false
	}
	return prev[n], true
}

// EditSimilarity returns the normalized edit similarity
// 1 − ED(a, b) / max(|a|, |b|), a value in [0, 1]. Two empty strings have
// similarity 1.
func EditSimilarity(a, b string) float64 {
	return EditSimilarityLen(a, b, utf8.RuneCountInString(a), utf8.RuneCountInString(b))
}

// EditSimilarityLen is EditSimilarity for known rune lengths na and nb.
func EditSimilarityLen(a, b string, na, nb int) float64 {
	m := max(na, nb)
	d, _ := EditDistanceBoundedLen(a, b, na, nb, m)
	return similarityAt(d, m)
}

// EditSimilarityAtLeast reports AtLeast(EditSimilarity(a, b), θ) without
// computing the full distance: θ becomes the largest distance bound that
// still satisfies it, and the banded kernel decides.
func EditSimilarityAtLeast(a, b string, theta float64) bool {
	return EditSimilarityAtLeastLen(a, b, utf8.RuneCountInString(a), utf8.RuneCountInString(b), theta)
}

// EditSimilarityAtLeastLen is EditSimilarityAtLeast for known rune lengths
// na and nb.
func EditSimilarityAtLeastLen(a, b string, na, nb int, theta float64) bool {
	return editWithinLen(a, b, na, nb, similarityBound(max(na, nb), theta, true))
}

// EditSimilarityAtMost reports AtMost(EditSimilarity(a, b), σ) the same way:
// the similarity exceeds σ exactly when the distance is within the largest
// bound whose similarity still exceeds σ.
func EditSimilarityAtMost(a, b string, sigma float64) bool {
	return EditSimilarityAtMostLen(a, b, utf8.RuneCountInString(a), utf8.RuneCountInString(b), sigma)
}

// EditSimilarityAtMostLen is EditSimilarityAtMost for known rune lengths na
// and nb.
func EditSimilarityAtMostLen(a, b string, na, nb int, sigma float64) bool {
	return !editWithinLen(a, b, na, nb, similarityBound(max(na, nb), sigma, false))
}

func editWithinLen(a, b string, na, nb, bound int) bool {
	d, ok := EditDistanceBoundedLen(a, b, na, nb, bound)
	return ok && d <= bound
}

// similarityBound returns the largest edit distance d in [0, m] whose
// similarity similarityAt(d, m) passes the threshold test — AtLeast(s, t)
// when atLeast, else s above AtMost's tolerance — or −1 when none does.
// Both tests are monotone in d, so the estimate ⌊(1−t)·m⌋ is corrected by
// stepping with the exact expression EditSimilarity evaluates: the bound
// gives the same verdict as comparing the similarity, float ties and
// Epsilon included.
func similarityBound(m int, t float64, atLeast bool) int {
	d := 0
	if f := (1 - t) * float64(m); f >= float64(m) {
		d = m
	} else if f > 0 {
		d = int(f)
	}
	for d < m && similarityPasses(d+1, m, t, atLeast) {
		d++
	}
	for d >= 0 && !similarityPasses(d, m, t, atLeast) {
		d--
	}
	return d
}

func similarityPasses(d, m int, t float64, atLeast bool) bool {
	if atLeast {
		return AtLeast(similarityAt(d, m), t)
	}
	return !AtMost(similarityAt(d, m), t)
}

// similarityAt is the edit similarity of distance d at longer rune length m.
func similarityAt(d, m int) float64 {
	if m == 0 {
		return 1
	}
	return 1 - float64(d)/float64(m)
}

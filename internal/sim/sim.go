// Package sim implements the similarity functions DIME rules are built from:
// set-based (overlap, Jaccard, dice, cosine), character-based (edit distance
// and normalized edit similarity), and hooks for ontology-based similarity
// (implemented in internal/ontology and plugged in through internal/rules).
//
// All functions are pure and allocation-light; the verification-cost models
// from Section IV-C of the paper live next to the functions they describe.
//
// Each function has two entry points. The string forms (Overlap, Jaccard,
// EditSimilarityAtLeast, ...) take token lists and values as they are; the
// set-size forms (JaccardOf, DiceOf, CosineOf) and the known-length forms
// (EditDistanceBoundedLen, EditSimilarityAtLeastLen, ...) take what a
// compiled record already carries — an overlap and set sizes from its
// interned token ids, the rune lengths of its values — so verifying a pair
// re-derives neither. Both forms compute the same values with the same
// arithmetic, so verdicts, float ties and Epsilon do not depend on which
// one a caller uses.
package sim

import "math"

// Overlap returns |a ∩ b| treating the slices as sets (duplicates in either
// input count once).
func Overlap(a, b []string) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	// Small inputs: direct scans beat map allocation by a wide margin, and
	// attribute token lists are usually short.
	if len(small) <= 16 && len(large) <= 32 {
		n := 0
		for bi, t := range large {
			if indexOf(large[:bi], t) >= 0 {
				continue // duplicate in large: count each common token once
			}
			if indexOf(small, t) >= 0 {
				n++
			}
		}
		return n
	}
	set := make(map[string]struct{}, len(small))
	for _, t := range small {
		set[t] = struct{}{}
	}
	n := 0
	for _, t := range large {
		if _, ok := set[t]; ok {
			n++
			delete(set, t) // count each common token once
		}
	}
	return n
}

// Jaccard returns |a ∩ b| / |a ∪ b| over the token sets. Two empty sets have
// similarity 1; one empty set against a non-empty one has similarity 0.
func Jaccard(a, b []string) float64 {
	return JaccardOf(Overlap(a, b), Distinct(a), Distinct(b))
}

// JaccardOf is Jaccard for sets of sizes da and db sharing ov elements.
func JaccardOf(ov, da, db int) float64 {
	union := da + db - ov
	if union == 0 {
		return 1
	}
	return float64(ov) / float64(union)
}

// Dice returns 2|a ∩ b| / (|a| + |b|) over the token sets.
func Dice(a, b []string) float64 {
	return DiceOf(Overlap(a, b), Distinct(a), Distinct(b))
}

// DiceOf is Dice for sets of sizes da and db sharing ov elements.
func DiceOf(ov, da, db int) float64 {
	if da+db == 0 {
		return 1
	}
	return 2 * float64(ov) / float64(da+db)
}

// Cosine returns |a ∩ b| / sqrt(|a|·|b|) over the token sets.
func Cosine(a, b []string) float64 {
	return CosineOf(Overlap(a, b), Distinct(a), Distinct(b))
}

// CosineOf is Cosine for sets of sizes da and db sharing ov elements.
func CosineOf(ov, da, db int) float64 {
	if da == 0 && db == 0 {
		return 1
	}
	if da == 0 || db == 0 {
		return 0
	}
	return float64(ov) / sqrtProduct(da, db)
}

// Distinct returns the number of distinct tokens in a: a set's size.
func Distinct(a []string) int {
	if len(a) < 2 {
		return len(a)
	}
	if len(a) <= 16 {
		n := 0
		for i, t := range a {
			if indexOf(a[:i], t) < 0 {
				n++
			}
		}
		return n
	}
	set := make(map[string]struct{}, len(a))
	for _, t := range a {
		set[t] = struct{}{}
	}
	return len(set)
}

// indexOf returns the position of t in xs or -1.
func indexOf(xs []string, t string) int {
	for i, x := range xs {
		if x == t {
			return i
		}
	}
	return -1
}

func sqrtProduct(a, b int) float64 {
	return math.Sqrt(float64(a) * float64(b))
}

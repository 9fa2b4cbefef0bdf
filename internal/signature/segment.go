package signature

import (
	"slices"
	"unicode/utf8"

	"dime/internal/rules"
)

// segIndex is the partition-based segment index of one similar-side edit
// predicate (eds ≥ θ, ed ≤ k), in the style of Pass-Join (Li, Deng, Wang,
// Feng, VLDB 2011). It enumerates the candidate pairs of a positive rule
// whose cheapest predicate is an edit predicate, in place of that
// predicate's q-gram posting lists.
//
// A value of n runes is cut into tau+1 even segments, where tau is the
// largest distance the verifier accepts against any partner the length
// filter admits (editReach). A pair the verifier accepts is at most the
// pair's bound b ≤ tau edits apart, and those edits touch at most b of the
// tau+1 disjoint segments, so one segment survives intact: it occurs in the
// partner, shifted by the inserts minus the deletes before it, at most b
// runes. A probe therefore looks up, for each admitted length and each of
// its segments, the partner's substrings of the segment's length that
// start within b of the segment's own start. Values too short to cut
// (n ≤ tau) pair with every record, as a Universal signature does.
//
// Segments are keyed by (rune length, segment number); posting lists hold
// record indexes in ascending order, so a probe against the records before
// i stops at the first index ≥ i. Records are probed in index order against
// the records before them, which is what ForEach and the incremental Add
// both do.
type segIndex struct {
	p      rules.Predicate
	bounds []int    // rune length m -> pairBound(p, m), filled on demand
	lens   []segLen // rune length -> that length's layout and segments
	vals   []string // per record: the value, invalid UTF-8 decoded
	runes  []int32  // per record: the value's rune length
	wild   []int    // records too short to cut, ascending
	mark   []int32  // per record: 1 + the probe that last met it
	offs   []int    // scratch: byte offset of each rune of a value
	found  []int    // scratch: one probe's partners
}

// segLen is the segment layout of one rune length and the posting lists of
// its segments.
type segLen struct {
	ready bool
	hi    int // longest admitted partner length (tau < n only)
	tau   int // editReach's bound; < 0: no pair passes, ≥ n: too short to cut
	// start holds the tau+1 segment starts followed by n; segment s spans
	// runes [start[s], start[s+1]).
	start []int
	lists []map[string][]int
}

// bound returns pairBound(p, m), tabulating it by m.
func (sx *segIndex) bound(m int) int { return boundAt(sx.p, &sx.bounds, m) }

// layout returns the segment layout of rune length n, computing it once.
func (sx *segIndex) layout(n int) *segLen {
	if n >= len(sx.lens) {
		sx.lens = append(sx.lens, make([]segLen, n+1-len(sx.lens))...)
	}
	sl := &sx.lens[n]
	if sl.ready {
		return sl
	}
	sl.ready = true
	sl.hi, sl.tau = editReach(sx.p, n, &sx.bounds)
	if sl.tau < 0 || sl.tau >= n {
		return sl
	}
	// Pass-Join's even partition: the first segments take ⌊n/(tau+1)⌋
	// runes, the last n mod (tau+1) take one more.
	parts := sl.tau + 1
	short, long := n/parts, n%parts
	sl.start = make([]int, parts+1)
	for s := 1; s <= parts; s++ {
		w := short
		if s > parts-long {
			w++
		}
		sl.start[s] = sl.start[s-1] + w
	}
	sl.lists = make([]map[string][]int, parts)
	for s := range sl.lists {
		sl.lists[s] = make(map[string][]int)
	}
	return sl
}

// runeOffsets returns the byte offset of each rune of v, followed by
// len(v), in sx.offs; nil when v is ASCII and the offsets are the rune
// positions themselves.
func (sx *segIndex) runeOffsets(v string, n int) []int {
	if len(v) == n {
		return nil
	}
	sx.offs = sx.offs[:0]
	for i := range v {
		sx.offs = append(sx.offs, i)
	}
	sx.offs = append(sx.offs, len(v))
	return sx.offs
}

// cut returns the runes [from, to) of v given its runeOffsets.
func cut(v string, offs []int, from, to int) string {
	if offs == nil {
		return v[from:to]
	}
	return v[offs[from]:offs[to]]
}

// add indexes record ri, which must be the next record index.
func (sx *segIndex) add(ri int, r *rules.Record) {
	v := r.Joined[sx.p.Attr]
	if !utf8.ValidString(v) {
		// The verifier compares runes, each bad byte decoding to U+FFFD;
		// segments must match on the same decoding.
		v = string([]rune(v))
	}
	n := r.RuneLen(sx.p.Attr)
	sx.vals = append(sx.vals, v)
	sx.runes = append(sx.runes, int32(n))
	sx.mark = append(sx.mark, 0)
	sl := sx.layout(n)
	switch {
	case sl.tau < 0:
		return
	case sl.tau >= n:
		sx.wild = append(sx.wild, ri)
		return
	}
	offs := sx.runeOffsets(v, n)
	for s, m := range sl.lists {
		seg := cut(v, offs, sl.start[s], sl.start[s+1])
		m[seg] = append(m[seg], ri)
	}
}

// partners returns, ascending, the records before i that share a segment
// with record i at an admitted length and shift, and the records before i
// too short to cut. The slice is scratch, valid until the next call.
func (sx *segIndex) partners(i int) []int {
	sx.found = sx.found[:0]
	v, n := sx.vals[i], int(sx.runes[i])
	sl := sx.layout(n)
	switch {
	case sl.tau < 0:
		return nil
	case sl.tau >= n:
		// Too short to cut: every earlier record is a partner.
		for j := 0; j < i; j++ {
			sx.found = append(sx.found, j)
		}
		return sx.found
	}
	sx.meet(sx.wild, i)
	offs := sx.runeOffsets(v, n)
	lo := max(n-sx.bound(n), 0)
	for l := lo; l <= sl.hi && l < len(sx.lens); l++ {
		other := &sx.lens[l]
		if other.lists == nil {
			continue // no record of this length, or none that can be cut
		}
		b := sx.bound(max(n, l))
		for s, m := range other.lists {
			st, w := other.start[s], other.start[s+1]-other.start[s]
			for x := max(st-b, 0); x <= min(st+b, n-w); x++ {
				sx.meet(m[cut(v, offs, x, x+w)], i)
			}
		}
	}
	slices.Sort(sx.found)
	return sx.found
}

// meet adds to found the records of an ascending list that come before i
// and that i's probe has not met yet.
func (sx *segIndex) meet(list []int, i int) {
	me := int32(i) + 1
	for _, j := range list {
		if j >= i {
			return
		}
		if sx.mark[j] != me {
			sx.mark[j] = me
			sx.found = append(sx.found, j)
		}
	}
}

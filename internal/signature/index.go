package signature

import (
	"sort"

	"dime/internal/rules"
)

// Candidate is an unordered record pair (I < J) that shares signatures under
// a positive rule and therefore must be verified. Shared counts the shared
// signatures summed over the rule's predicates; the verification scheduler
// turns it into a similarity probability estimate.
type Candidate struct {
	I, J   int
	Shared int
}

// bitsetLimit is the group size up to which pair dedup uses a bitset
// (n² bits ≈ 256 MB at the limit); it is a variable only so tests can force
// the hash-set path.
var bitsetLimit = 45000

func pairKey(i, j int) uint64 {
	if i > j {
		i, j = j, i
	}
	return uint64(i)<<32 | uint64(uint32(j))
}

// PosIndex holds the inverted indexes of one positive rule over a group's
// records and produces the candidate pairs of DIME+'s filter step. A pair is
// a candidate iff for every predicate of the rule the two records share a
// signature (the tuple-signature semantics of Section IV-B) or one of them
// is a wildcard on that predicate.
//
// Candidate generation enumerates co-occurrence pairs only for the cheapest
// predicate (fewest expected pairs) and filters them against the remaining
// predicates by intersecting the two records' signature sets directly, so a
// rule with one selective predicate stays fast even when another predicate's
// inverted lists are long. When the cheapest predicate is a similar-side
// edit predicate, its pairs come from a segment index (segIndex) instead of
// its q-gram posting lists; its gram prefixes still filter and count the
// pairs, so the candidates are the pairs that share a segment and pass
// every predicate's signature filter.
type PosIndex struct {
	// Rule is the positive rule the index serves.
	Rule rules.Rule

	n         int
	perPred   []predIndex
	seg       *segIndex  // the base predicate's segment index; nil if none
	sigCounts []int      // total signatures per record across predicates
	added     sharedWith // Add's marks: each added record against its partners
}

// predIndex is the inverted index of one predicate over the context's
// signature ids. Posting lists are kept in first-seen order — the order in
// which a scan of the records, each in signature order, meets their
// signatures — because candidates stream to verification in that order.
type predIndex struct {
	slot      []int32   // signature id -> 1 + its list's position in lists; 0 = none yet
	lists     [][]int   // posting lists in first-seen order: record indexes, ascending
	sigs      [][]int32 // per record: its signature ids
	wildcards []int     // records whose signature set is Universal
	isWild    []bool
	pairEst   int  // Σ len(list)² + wildcards·n — enumeration cost estimate
	unlisted  bool // no posting lists: the segment index enumerates its pairs
}

// reserve grows the id table to hold signature id.
func (pd *predIndex) reserve(id int32) {
	if int(id) >= len(pd.slot) {
		pd.slot = append(pd.slot, make([]int32, int(id)+1-len(pd.slot))...)
	}
}

// list returns the posting list of signature id, creating it (in
// first-seen order) when absent.
func (pd *predIndex) list(id int32) *[]int {
	pd.reserve(id)
	if pd.slot[id] == 0 {
		pd.lists = append(pd.lists, nil)
		pd.slot[id] = int32(len(pd.lists))
	}
	return &pd.lists[pd.slot[id]-1]
}

// posting returns signature id's posting list (nil if none).
func (pd *predIndex) posting(id int32) []int {
	if int(id) >= len(pd.slot) || pd.slot[id] == 0 {
		return nil
	}
	return pd.lists[pd.slot[id]-1]
}

// isUniversal reports whether a signature set is the wildcard set.
func isUniversal(sigs []int32) bool {
	return len(sigs) == 1 && sigs[0] == Universal
}

// BuildPositive constructs the signature index of a positive rule over all
// records of a group.
func BuildPositive(ctx *Context, rule rules.Rule, recs []*rules.Record) *PosIndex {
	ix := &PosIndex{Rule: rule, n: len(recs)}
	ix.perPred = make([]predIndex, len(rule.Predicates))
	ix.sigCounts = make([]int, len(recs))
	for pi, p := range rule.Predicates {
		pd := &ix.perPred[pi]
		pd.sigs = make([][]int32, len(recs))
		pd.isWild = make([]bool, len(recs))
		sg := ctx.signer(p)
		maxID := Universal
		for ri, r := range recs {
			sigs := sg.of(r)
			ix.sigCounts[ri] += len(sigs)
			if isUniversal(sigs) {
				pd.isWild[ri] = true
				pd.wildcards = append(pd.wildcards, ri)
				continue
			}
			for _, id := range sigs {
				maxID = max(maxID, id)
			}
			pd.sigs[ri] = sigs
		}
		// The id table first counts each id's records: the posting-list
		// lengths the pair estimate needs, before any list exists.
		pd.slot = make([]int32, maxID+1)
		for _, sigs := range pd.sigs {
			for _, id := range sigs {
				pd.slot[id]++
			}
		}
		for id, c := range pd.slot {
			pd.pairEst += int(c) * int(c-1) / 2
			pd.slot[id] = 0
		}
		pd.pairEst += len(pd.wildcards) * len(recs)
	}
	ix.indexSegments(recs)
	for pi := range ix.perPred {
		pd := &ix.perPred[pi]
		if pd.unlisted {
			continue
		}
		for ri, sigs := range pd.sigs {
			for _, id := range sigs {
				l := pd.list(id)
				*l = append(*l, ri)
			}
		}
	}
	return ix
}

// indexSegments builds the segment index when the base predicate is a
// similar-side edit predicate; that predicate then keeps no posting lists.
// The base is fixed here: Add keeps the segment index current, so it
// serves every later ForEach and Add.
func (ix *PosIndex) indexSegments(recs []*rules.Record) {
	if len(ix.perPred) == 0 {
		return
	}
	base := ix.base()
	p := ix.Rule.Predicates[base]
	if !similarSide(p) || (p.Fn != rules.EditSim && p.Fn != rules.EditDist) {
		return
	}
	ix.perPred[base].unlisted = true
	ix.seg = &segIndex{p: p}
	for ri, r := range recs {
		ix.seg.add(ri, r)
	}
}

// SigCount returns the total signature count of record i across the rule's
// predicates (used to estimate similarity probability).
func (ix *PosIndex) SigCount(i int) int { return ix.sigCounts[i] }

// PairEstimate returns an upper bound on the candidate pairs ForEach
// streams: the pair count of its cheapest predicate's posting lists and
// wildcards.
func (ix *PosIndex) PairEstimate() int {
	if len(ix.perPred) == 0 || ix.n < 2 {
		return 0
	}
	return ix.perPred[ix.base()].pairEst
}

// base returns the predicate ForEach enumerates pairs for: the one with the
// smallest pair estimate.
func (ix *PosIndex) base() int {
	base := 0
	for pi := range ix.perPred {
		if ix.perPred[pi].pairEst < ix.perPred[base].pairEst {
			base = pi
		}
	}
	return base
}

// sharedWith counts, against one fixed record, the signatures its partners
// share with it on every predicate: marking the fixed record's ids once
// turns each partner's count into one lookup per signature.
type sharedWith struct {
	fixed int32     // 1 + the marked record; 0 = none
	marks [][]int32 // per predicate: signature id -> 1 + the last record marked with it
}

// cover grows sw's marks to every signature id ix holds, keeping the marks
// already set. They follow the capacity of the index's id table, so as Add
// meets new ids they regrow only as often as the table does.
func (ix *PosIndex) cover(sw *sharedWith) {
	if sw.marks == nil {
		sw.marks = make([][]int32, len(ix.perPred))
	}
	for pi := range ix.perPred {
		if n := cap(ix.perPred[pi].slot); n > len(sw.marks[pi]) {
			m := make([]int32, n)
			copy(m, sw.marks[pi])
			sw.marks[pi] = m
		}
	}
}

// fix makes record i the fixed side of later shared calls.
func (ix *PosIndex) fix(sw *sharedWith, i int) {
	if sw.fixed == int32(i)+1 {
		return
	}
	sw.fixed = int32(i) + 1
	for pi := range ix.perPred {
		m := sw.marks[pi]
		for _, id := range ix.perPred[pi].sigs[i] {
			m[id] = sw.fixed
		}
	}
}

// shared returns the signatures record j shares with the fixed record,
// summed over the predicates, and whether the pair passes every
// predicate's filter (a wildcard on either side shares none but passes).
func (ix *PosIndex) shared(sw *sharedWith, j int) (int, bool) {
	i := int(sw.fixed) - 1
	shared := 0
	for pi := range ix.perPred {
		pd := &ix.perPred[pi]
		if pd.isWild[i] || pd.isWild[j] {
			continue
		}
		m := sw.marks[pi]
		c := 0
		for _, id := range pd.sigs[j] {
			if m[id] == sw.fixed {
				c++
			}
		}
		if c == 0 {
			return 0, false
		}
		shared += c
	}
	return shared, true
}

// pairSet deduplicates the unordered pairs (i < j) of an n-record group: a
// bitset over i·n+j while the n² bits stay within ~256 MB (n ≤ 45k). Beyond
// that a bitset is still the right call when the pair estimate is large (a
// hash set with tens of millions of entries costs far more than zeroing
// ~1–2 GB once); only large-n sparse runs use the hash set.
type pairSet struct {
	n    int
	bits []uint64
	hash map[uint64]bool
}

func newPairSet(n, pairEst int) pairSet {
	denseBits := int64(n)*int64(n)/8 <= 2<<30 && pairEst > 8_000_000
	if n <= bitsetLimit || denseBits {
		return pairSet{n: n, bits: make([]uint64, (n*n+63)/64)}
	}
	return pairSet{n: n, hash: make(map[uint64]bool, pairEst/2+1)}
}

// add records pair (i, j), i < j, and reports whether it was new.
func (s *pairSet) add(i, j int) bool {
	if s.bits != nil {
		bit := uint(i*s.n + j)
		word, mask := bit/64, uint64(1)<<(bit%64)
		if s.bits[word]&mask != 0 {
			return false
		}
		s.bits[word] |= mask
		return true
	}
	key := pairKey(i, j)
	if s.hash[key] {
		return false
	}
	s.hash[key] = true
	return true
}

// ForEach streams the candidate pairs of the rule in a deterministic order,
// calling fn once per unique pair. Pairs not visited cannot satisfy the
// rule. The Shared count sums shared signatures across all predicates.
//
// With a segment index, records are taken in index order and each streams
// its pairs with the records before it, by ascending partner — the order
// Add returns them in. Otherwise the order is the base predicate's posting
// lists in first-seen order, then list position, and a pair met again on a
// later shared list is dropped before it is counted.
func (ix *PosIndex) ForEach(fn func(Candidate)) {
	if len(ix.perPred) == 0 || ix.n < 2 {
		return
	}
	if ix.seg != nil {
		var sw sharedWith
		ix.cover(&sw)
		for i := 1; i < ix.n; i++ {
			ix.segCandidates(&sw, i, fn)
		}
		return
	}
	bp := &ix.perPred[ix.base()]
	seen := newPairSet(ix.n, bp.pairEst)
	var sw sharedWith
	ix.cover(&sw)
	var c Candidate
	for _, list := range bp.lists {
		for a, i := range list {
			for _, j := range list[a+1:] {
				// Lists ascend and hold each record once, so i < j.
				if !seen.add(i, j) {
					continue
				}
				ix.fix(&sw, i)
				if shared, ok := ix.shared(&sw, j); ok {
					c.I, c.J, c.Shared = i, j, shared
					fn(c)
				}
			}
		}
	}
	for _, w := range bp.wildcards {
		for o := 0; o < ix.n; o++ {
			if o == w || !seen.add(min(w, o), max(w, o)) {
				continue
			}
			ix.fix(&sw, w)
			if shared, ok := ix.shared(&sw, o); ok {
				c.I, c.J, c.Shared = min(w, o), max(w, o), shared
				fn(c)
			}
		}
	}
}

// segCandidates streams the candidates record i forms with the records
// before it, by ascending partner: the segment index's partners that pass
// every predicate's signature filter.
func (ix *PosIndex) segCandidates(sw *sharedWith, i int, fn func(Candidate)) {
	found := ix.seg.partners(i)
	if len(found) == 0 {
		return
	}
	ix.fix(sw, i)
	var c Candidate
	c.J = i
	for _, j := range found {
		if shared, ok := ix.shared(sw, j); ok {
			c.I, c.Shared = j, shared
			fn(c)
		}
	}
}

// Candidates materializes ForEach's stream ordered by (I, J).
func (ix *PosIndex) Candidates() []Candidate {
	var out []Candidate
	ix.ForEach(func(c Candidate) { out = append(out, c) })
	sort.Slice(out, func(a, b int) bool {
		if out[a].I != out[b].I {
			return out[a].I < out[b].I
		}
		return out[a].J < out[b].J
	})
	return out
}

// NegFilter is the signature filter of one negative rule against the pivot
// partition P*: per-predicate inverted indexes over the pivot's records
// (Section IV-D). For a pair (e, e*), sharing no signature on every
// predicate proves φ−(e, e*) is true.
type NegFilter struct {
	// Rule is the negative rule the filter serves.
	Rule rules.Rule

	pivot   []*rules.Record
	perPred []negPredIndex
}

// negPredIndex is one predicate's inverted index over the pivot, in CSR
// form: the pivot positions of signature id are pos[start[id]:start[id+1]],
// ascending.
type negPredIndex struct {
	sign      signer
	start     []int32
	pos       []int32
	wildcards []int
}

// positions returns the pivot positions holding signature id.
func (pd *negPredIndex) positions(id int32) []int32 {
	if int(id)+1 >= len(pd.start) {
		return nil
	}
	return pd.pos[pd.start[id]:pd.start[id+1]]
}

// BuildNegative indexes the pivot partition's records under a negative rule.
func BuildNegative(ctx *Context, rule rules.Rule, pivot []*rules.Record) *NegFilter {
	nf := &NegFilter{Rule: rule, pivot: pivot}
	nf.perPred = make([]negPredIndex, len(rule.Predicates))
	for pi, p := range rule.Predicates {
		pd := &nf.perPred[pi]
		pd.sign = ctx.signer(p)
		maxID, total := Universal, 0
		for ri, r := range pivot {
			sigs := pd.sign.of(r)
			if isUniversal(sigs) {
				pd.wildcards = append(pd.wildcards, ri)
				continue
			}
			for _, id := range sigs {
				maxID = max(maxID, id)
			}
			total += len(sigs)
		}
		// Count each id's positions into start[id+1], prefix-sum so start[id]
		// is where id's positions begin, fill advancing start[id] to id's
		// end (= id+1's begin), then shift back by one.
		pd.start = make([]int32, maxID+2)
		pd.pos = make([]int32, total)
		for _, r := range pivot {
			if sigs := pd.sign.of(r); !isUniversal(sigs) {
				for _, id := range sigs {
					pd.start[id+1]++
				}
			}
		}
		for i := 1; i < len(pd.start); i++ {
			pd.start[i] += pd.start[i-1]
		}
		for ri, r := range pivot {
			if sigs := pd.sign.of(r); !isUniversal(sigs) {
				for _, id := range sigs {
					pd.pos[pd.start[id]] = int32(ri)
					pd.start[id]++
				}
			}
		}
		copy(pd.start[1:], pd.start[:len(pd.start)-1])
		pd.start[0] = 0
	}
	return nf
}

// PartitionMustSatisfy reports whether every pair (e ∈ part, e* ∈ pivot)
// provably satisfies the negative rule via signatures alone: for every
// predicate, the partition's signature union is disjoint from the pivot's
// and neither side has wildcards (lines 18–19 of Algorithm 2).
func (nf *NegFilter) PartitionMustSatisfy(part []*rules.Record) bool {
	if len(part) == 0 || len(nf.pivot) == 0 {
		return false
	}
	for pi := range nf.perPred {
		pd := &nf.perPred[pi]
		if len(pd.wildcards) > 0 {
			return false
		}
		for _, r := range part {
			for _, id := range pd.sign.of(r) {
				if id == Universal || len(pd.positions(id)) > 0 {
					return false
				}
			}
		}
	}
	return true
}

// ProbeResult describes one outside record probed against the pivot.
type ProbeResult struct {
	// Certain is the position (within the pivot slice) of some pivot record
	// whose pair with the probed record provably satisfies the rule, or -1
	// when no such record exists.
	Certain int
	// Shared maps pivot position -> shared-signature count summed over
	// predicates, for the pivot records that share something somewhere. Only
	// meaningful when Certain == -1.
	Shared map[int]int
}

// Probe checks one record of an outside partition against the pivot. If some
// pivot record shares no signatures with r on any predicate (and no
// wildcards interfere), the pair provably satisfies the rule and its pivot
// position is returned in Certain. Otherwise Shared carries the per-pivot
// shared counts used to order verification.
//
// Probe allocates its result map on every call; hot loops that probe many
// records against the same pivot should hold a ProbeScratch and call
// ProbeInto instead.
func (nf *NegFilter) Probe(r *rules.Record) ProbeResult {
	var sc ProbeScratch
	res := ProbeResult{Certain: nf.ProbeInto(r, &sc), Shared: make(map[int]int, sc.nonzero)}
	for pi, c := range sc.shared {
		if c != 0 {
			res.Shared[pi] = int(c)
		}
	}
	return res
}

// ProbeScratch holds the per-probe working buffers of ProbeInto so repeated
// probes against the same (or smaller) pivot allocate nothing. The zero value
// is ready to use; a scratch must not be shared between goroutines.
type ProbeScratch struct {
	matched []bool
	shared  []int32
	nonzero int
}

// SharedCount returns the shared-signature count of pivot position pi from
// the most recent ProbeInto (ProbeResult.Shared[pi], with 0 for absent keys).
func (sc *ProbeScratch) SharedCount(pi int) int { return int(sc.shared[pi]) }

// NonzeroShared returns the number of pivot positions with a nonzero shared
// count in the most recent ProbeInto — exactly len(ProbeResult.Shared) of the
// allocating Probe.
func (sc *ProbeScratch) NonzeroShared() int { return sc.nonzero }

// ProbeInto is Probe with caller-owned buffers: it returns the Certain pivot
// position (or -1) and leaves the per-pivot shared counts readable through
// sc. Results are identical to Probe's for the same inputs.
func (nf *NegFilter) ProbeInto(r *rules.Record, sc *ProbeScratch) int {
	n := len(nf.pivot)
	if cap(sc.matched) < n {
		sc.matched = make([]bool, n)
		sc.shared = make([]int32, n)
	}
	sc.matched = sc.matched[:n]
	sc.shared = sc.shared[:n]
	for i := range sc.matched {
		sc.matched[i] = false
		sc.shared[i] = 0
	}
	sc.nonzero = 0
	// matched[ri] = true when the pair (r, pivot[ri]) shares a signature (or
	// hits a wildcard) on at least one predicate and thus cannot be proven
	// dissimilar by the filter.
	selfWildAll := false
	for pi := range nf.perPred {
		pd := &nf.perPred[pi]
		sigs := pd.sign.of(r)
		selfWild := false
		for _, id := range sigs {
			if id == Universal {
				selfWild = true
				continue
			}
			for _, ri := range pd.positions(id) {
				sc.matched[ri] = true
				if sc.shared[ri] == 0 {
					sc.nonzero++
				}
				sc.shared[ri]++
			}
		}
		if selfWild {
			selfWildAll = true
		}
		for _, ri := range pd.wildcards {
			sc.matched[ri] = true
		}
	}
	if selfWildAll {
		for ri := range sc.matched {
			sc.matched[ri] = true
		}
	}
	for ri, m := range sc.matched {
		if !m {
			return ri
		}
	}
	return -1
}

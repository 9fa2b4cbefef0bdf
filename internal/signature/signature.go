// Package signature implements DIME+'s filter step (Section IV of the
// paper): per-predicate signature generation for set-based, character-based
// and ontology-based similarity functions, in both the "similar side" used
// by positive rules (share a signature ⇒ candidate pair) and the "dissimilar
// side" used by negative rules (no shared signature ⇒ the predicate must
// hold), plus the inverted indexes built over those signatures.
//
// Guarantees, per predicate p and records a, b:
//
//   - similar side: if p.Eval(a, b) is true then Signatures(p, a) and
//     Signatures(p, b) intersect;
//   - dissimilar side: if Signatures(p, a) and Signatures(p, b) do NOT
//     intersect then p.Eval(a, b) is true.
//
// Set-based predicates use prefix signatures under a global
// document-frequency token ordering; character-based predicates use q-gram
// prefixes; ontology predicates use the τ-ancestor node signatures of
// Lemmas 4.1/4.2.
package signature

import (
	"fmt"
	"math"

	"dime/internal/ontology"
	"dime/internal/rules"
	"dime/internal/sim"
	"dime/internal/tokenize"
)

// Universal is the signature emitted when a predicate is trivially satisfied
// by every pair (e.g. threshold 0 on the similar side): every entity shares
// it, so no pair is pruned. It is the one reserved id; interned ids are ≥ 0.
const Universal int32 = -1

// Context carries the group-level state signature generation needs: the
// interned token and q-gram spaces of the attributes the rule set signs,
// and the global τ_min depths for ontology node signatures. Build one per
// group with NewContext.
//
// Signatures are int32 ids. Every token of an attribute, and every q-gram of
// an (attribute, q), is interned once, when the space is built; each id's
// numeric order is the space's global document-frequency order (see
// tokenize.Interner), and each record keeps one deduplicated id list per
// space in that order, so a set or gram predicate's prefix signature is a
// subslice of it. Ontology signatures intern the signature node's path
// string, so equal paths share an id whichever tree value carries them.
//
// The token id lists are also what set predicates verify on: building a
// token space hands every record of the context its list as the record's
// id view (rules.Record.IDs), and Append does the same for a late record,
// so tokens are interned once per group and pairs count shared tokens on
// ids.
//
// Concurrency: after NewContext returns, the context is read-only for every
// predicate of the rule set it was built with and every record it holds —
// NewContext precomputes the spaces, τ_min values, ontology depth floors
// and per-record signature sets those predicates need, so Signatures,
// RuleSignatures and the NegFilter/PosIndex methods built on them may be
// called from multiple goroutines concurrently (parallel DIME+ relies on
// this). NewContext writes its records' id views, so it must not run while
// another goroutine evaluates predicates on those records. Three
// exceptions, all single-goroutine by contract: Signatures on a predicate
// *outside* the original rule set may lazily build a space (writing the
// records' id views of its attribute); Signatures on a record the context
// does not hold interns that record's unseen tokens; and the incremental
// Append/Accepts path mutates the context. None may run concurrently with
// other context use or with predicate evaluation on the context's records.
type Context struct {
	tokens   []*space             // per attribute: nil until a set predicate signs it
	grams    []*space             // one per (attribute, q) an edit predicate signs
	nodes    []*tokenize.Interner // per attribute: ontology signature paths
	tauMin   map[tauKey]int
	minDepth map[int]int // per attribute: shallowest mapped node
	// sigCache holds, per rule-set predicate, every record's signature set.
	// NewContext fills it eagerly so that DIME+'s filter phases — index
	// build, partition filtering, and the per-entity probes of the negative
	// phase — are pure lookups instead of recomputing (and reallocating)
	// signatures at every call. Entries are extended by Append.
	sigCache map[rules.Predicate][][]int32
	prepared []rules.Predicate // sigCache's keys in preparation order
	records  []*rules.Record
	gramBuf  []string // q-gram scratch of gramSpace and Append
}

// space is one interned signature space: an attribute's tokens, or its
// q-grams of length q (q = 0 for tokens).
type space struct {
	attr, q int
	in      *tokenize.Interner
	ids     [][]int32 // per record: distinct ids in global order
}

// universalSigs is the shared one-element Universal signature set; callers
// treat signature sets as read-only, so every trivially-satisfied predicate
// can return the same backing array.
var universalSigs = []int32{Universal}

type tauKey struct {
	attr  int
	theta float64
}

// NewContext builds the signature context for a compiled group. The rule set
// determines which token and gram spaces and ontology thresholds need
// precomputation; signatures for predicates outside the rule set are still
// generated, with lazily built spaces.
func NewContext(cfg *rules.Config, recs []*rules.Record, rs rules.RuleSet) *Context {
	nAttr := cfg.Schema.Len()
	c := &Context{
		tokens:   make([]*space, nAttr),
		nodes:    make([]*tokenize.Interner, nAttr),
		tauMin:   make(map[tauKey]int),
		minDepth: make(map[int]int),
		sigCache: make(map[rules.Predicate][][]int32),
		records:  recs,
	}
	for _, r := range rs.Positive {
		for _, p := range r.Predicates {
			c.prepare(p)
		}
	}
	for _, r := range rs.Negative {
		for _, p := range r.Predicates {
			c.prepare(p)
		}
	}
	return c
}

// prepare precomputes everything a predicate's signature generation can
// touch — and the predicate's per-record signature sets — so that
// Signatures is a pure read afterwards (the concurrent-read guarantee
// documented on Context).
func (c *Context) prepare(p rules.Predicate) {
	switch p.Fn {
	case rules.Overlap, rules.Jaccard, rules.Dice, rules.Cosine:
		c.tokenSpace(p.Attr)
	case rules.EditSim, rules.EditDist:
		c.gramSpace(p.Attr, qOf(p))
	case rules.Ontology:
		c.tauMinFor(p)
		// The dissimilar side signs with the group's depth floor; warm it
		// here so concurrent probes never race to write the cache.
		c.minDepthFor(p.Attr)
	}
	if _, ok := c.sigCache[p]; ok {
		return
	}
	sets := make([][]int32, len(c.records))
	if p.Fn == rules.Ontology {
		// Ontology sets hold one id: back them with one array.
		ids := make([]int32, len(c.records))
		for i, r := range c.records {
			sets[i] = c.ontologySignatures(p, r, ids[i:i:i+1])
		}
	} else {
		for i, r := range c.records {
			sets[i] = c.computeSignatures(p, r)
		}
	}
	c.sigCache[p] = sets
	c.prepared = append(c.prepared, p)
}

// indexOf returns r's position among the context's records, if the context
// holds r itself (not merely a record with the same Index).
func (c *Context) indexOf(r *rules.Record) (int, bool) {
	if r.Index >= 0 && r.Index < len(c.records) && c.records[r.Index] == r {
		return r.Index, true
	}
	return 0, false
}

// tokenSpace builds (once) the interned token space of an attribute over
// the context's records.
func (c *Context) tokenSpace(attr int) *space {
	if sp := c.tokens[attr]; sp != nil {
		return sp
	}
	total := 0
	for _, r := range c.records {
		total += len(r.Tokens[attr])
	}
	b := tokenize.NewBuilder(len(c.records), total)
	for _, r := range c.records {
		b.Add(r.Tokens[attr])
	}
	sp := &space{attr: attr}
	sp.in, sp.ids = b.Build()
	c.tokens[attr] = sp
	for i, r := range c.records {
		sp.view(r, sp.ids[i])
	}
	return sp
}

// view hands a record of the context its id list of a token space, the
// view set predicates verify on. Records built without compilation have no
// IDs slots and keep the string path.
func (sp *space) view(r *rules.Record, ids []int32) {
	if sp.attr < len(r.IDs) {
		v := &r.IDs[sp.attr]
		v.Space, v.IDs = sp.in, ids
	}
}

func qOf(p rules.Predicate) int {
	if p.Q > 0 {
		return p.Q
	}
	return 2
}

// gramSpace builds (once) the interned q-gram space of an attribute over
// the context's records.
func (c *Context) gramSpace(attr, q int) *space {
	for _, sp := range c.grams {
		if sp.attr == attr && sp.q == q {
			return sp
		}
	}
	total := 0
	for _, r := range c.records {
		total += len(r.Joined[attr])
	}
	b := tokenize.NewBuilder(len(c.records), total)
	for _, r := range c.records {
		c.gramBuf = tokenize.AppendQGrams(c.gramBuf[:0], r.Joined[attr], q)
		b.Add(c.gramBuf)
	}
	sp := &space{attr: attr, q: q}
	sp.in, sp.ids = b.Build()
	c.grams = append(c.grams, sp)
	return sp
}

// tokenIDs returns a record's distinct token ids of an attribute in global
// order: the cached list for a record of the context, freshly interned for
// any other record.
func (c *Context) tokenIDs(attr int, r *rules.Record) []int32 {
	sp := c.tokenSpace(attr)
	if i, ok := c.indexOf(r); ok {
		return sp.ids[i]
	}
	return sp.in.AppendDoc(nil, r.Tokens[attr])
}

// gramIDs is tokenIDs for the q-grams of an attribute.
func (c *Context) gramIDs(attr, q int, r *rules.Record) []int32 {
	sp := c.gramSpace(attr, q)
	if i, ok := c.indexOf(r); ok {
		return sp.ids[i]
	}
	return sp.in.AppendDoc(nil, tokenize.QGrams(r.Joined[attr], q))
}

// tauMinFor computes (once) the global τ_min for an ontology predicate's
// generation threshold over the group's mapped nodes.
func (c *Context) tauMinFor(p rules.Predicate) int {
	theta := genThreshold(p)
	key := tauKey{p.Attr, theta}
	if v, ok := c.tauMin[key]; ok {
		return v
	}
	nodes := make([]*ontology.Node, 0, len(c.records))
	for _, r := range c.records {
		nodes = append(nodes, r.Nodes[p.Attr])
	}
	v := ontology.TauMin(nodes, theta)
	c.tauMin[key] = v
	return v
}

// genThreshold maps a predicate to the similarity threshold its signatures
// are generated at. Similar-side predicates use the lowest similarity their
// verifier accepts: θ − sim.Epsilon, since Eval compares with sim.AtLeast
// (edit distance, an integer bound compared exactly, keeps θ).
// Dissimilar-side predicates use the smallest value strictly above σ
// (σ+1 for the integral overlap function, σ+ε for continuous similarities,
// σ−1 as the gram bound for edit distance).
func genThreshold(p rules.Predicate) float64 {
	const eps = 1e-9
	if similarSide(p) {
		if p.Fn == rules.EditDist {
			return p.Threshold
		}
		return p.Threshold - sim.Epsilon
	}
	switch p.Fn {
	case rules.Overlap:
		return p.Threshold + 1
	case rules.EditDist:
		// dissimilar side of a distance: ed ≥ σ; grams generated at bound σ−1.
		return p.Threshold - 1
	default:
		return p.Threshold + eps
	}
}

// similarSide reports whether the predicate asserts similarity (true for
// GE on similarity functions and LE on EditDist).
func similarSide(p rules.Predicate) bool {
	if p.Fn.DistanceLike() {
		return p.Op == rules.LE
	}
	return p.Op == rules.GE
}

// Signatures returns the signature set of a record w.r.t. one predicate, as
// ids. A set never mixes Universal with other ids: it is either exactly
// {Universal} or a list of interned ids. A nil result means the record can
// never be on the "sharing" side: for a similar-side predicate it can never
// satisfy it; for a dissimilar-side predicate it satisfies it against every
// partner.
//
// For predicates of the rule set the context was built with, the result is a
// cached slice shared across calls; callers must treat it as read-only.
func (c *Context) Signatures(p rules.Predicate, r *rules.Record) []int32 {
	return c.signer(p).of(r)
}

// signer reads one predicate's signature sets. Looking the predicate's
// cache up once, instead of hashing the predicate per record, is what the
// index builds and probes use.
type signer struct {
	c    *Context
	p    rules.Predicate
	sets [][]int32 // the predicate's cached sets; nil outside the rule set
}

func (c *Context) signer(p rules.Predicate) signer {
	return signer{c: c, p: p, sets: c.sigCache[p]}
}

// of returns r's signature set, as Signatures does.
func (s signer) of(r *rules.Record) []int32 {
	if i, ok := s.c.indexOf(r); ok && i < len(s.sets) {
		return s.sets[i]
	}
	return s.c.computeSignatures(s.p, r)
}

// computeSignatures generates a record's signature set from scratch; the
// sigCache fill and records outside the context go through it.
func (c *Context) computeSignatures(p rules.Predicate, r *rules.Record) []int32 {
	switch p.Fn {
	case rules.Overlap, rules.Jaccard, rules.Dice, rules.Cosine:
		return c.setSignatures(p, r)
	case rules.EditSim, rules.EditDist:
		return c.gramSignatures(p, r)
	case rules.Ontology:
		return c.ontologySignatures(p, r, nil)
	default:
		return nil
	}
}

// setSignatures returns the prefix signature of the record's token set under
// the global document-frequency ordering. The per-side overlap lower bound t
// follows the function family; the prefix keeps the first len−t+1 tokens.
func (c *Context) setSignatures(p rules.Predicate, r *rules.Record) []int32 {
	theta := genThreshold(p)
	if theta <= 0 {
		return universalSigs
	}
	n := len(r.Tokens[p.Attr])
	t := overlapBound(p.Fn, theta, n)
	if t < 1 {
		return universalSigs
	}
	k := n - t + 1
	if k <= 0 {
		return nil
	}
	// Every threshold's prefix is a subslice of the record's one id list.
	// Record tokens are distinct, so the list has n ids; the clamp only
	// guards hand-built records whose token lists repeat.
	ids := c.tokenIDs(p.Attr, r)
	return ids[:min(k, len(ids))]
}

// overlapBound returns the guaranteed minimum overlap t for a record of n
// tokens when the set similarity is ≥ theta. The ceil is taken with a small
// negative epsilon so exact products (0.75·4) do not round up; rounding t
// down only lengthens the prefix, preserving completeness.
func overlapBound(fn rules.Func, theta float64, n int) int {
	ceil := func(x float64) int { return int(math.Ceil(x - 1e-9)) }
	switch fn {
	case rules.Overlap:
		return ceil(theta)
	case rules.Jaccard:
		return ceil(theta * float64(n))
	case rules.Dice:
		return ceil(theta * float64(n) / 2)
	case rules.Cosine:
		return ceil(theta * theta * float64(n))
	default:
		return 1
	}
}

// gramSignatures returns the q-gram prefix signature for edit-based
// predicates: for an edit-distance bound b, values within b edits share a
// gram among the first q·b+1 distinct grams (Gravano et al.).
func (c *Context) gramSignatures(p rules.Predicate, r *rules.Record) []int32 {
	q := qOf(p)
	bound := editBound(p, r.RuneLen(p.Attr))
	if bound < 0 {
		if similarSide(p) {
			return nil // the verifier accepts no partner
		}
		// Dissimilar side with σ ≤ 0 edits: the predicate is trivially true
		// against every partner; a bound of 0 keeps exact-match pruning.
		bound = 0
	}
	k := q*bound + 1
	ids := c.gramIDs(p.Attr, q, r)
	if len(ids) < k {
		// The q-gram count guarantee is vacuous for strings this short
		// (fewer than q·b+1 grams): emit the wildcard so the record pairs
		// with everything instead of being pruned incorrectly.
		return universalSigs
	}
	return ids[:k]
}

// editBound converts an edit predicate's generation threshold to an integer
// edit-distance bound for a value of rune length n. On the similar side it
// is the largest distance the verifier accepts against any partner the
// length filter admits (editReach), so it covers every pair Eval accepts.
func editBound(p rules.Predicate, n int) int {
	if similarSide(p) {
		_, tau := editReach(p, n, nil)
		return tau
	}
	theta := genThreshold(p)
	switch p.Fn {
	case rules.EditDist:
		return int(theta)
	case rules.EditSim:
		if theta <= 0 {
			return n // universal-ish: keep all grams
		}
		if theta > 1 {
			return 0
		}
		// sim ≥ θ ⇒ ed ≤ (1−θ)·max and max ≤ n/θ ⇒ ed ≤ (1−θ)·n/θ.
		return int(math.Floor((1-theta)*float64(n)/theta + 1e-9))
	default:
		return 0
	}
}

// pairBound is the largest edit distance a similar-side edit predicate's
// verifier accepts for a pair whose longer value has m runes, or −1 when
// it accepts none: the integer bound of ed ≤ k, and for eds ≥ θ the bound
// Eval itself derives (sim.SimilarityBound, float ties and sim.Epsilon
// included).
func pairBound(p rules.Predicate, m int) int {
	if p.Fn == rules.EditDist {
		return int(p.Threshold)
	}
	return sim.SimilarityBound(m, p.Threshold, true)
}

// boundAt returns pairBound(p, m), read from and recorded in *tab, by m,
// when tab is not nil.
func boundAt(p rules.Predicate, tab *[]int, m int) int {
	if tab == nil {
		return pairBound(p, m)
	}
	for len(*tab) <= m {
		*tab = append(*tab, pairBound(p, len(*tab)))
	}
	return (*tab)[m]
}

// editReach returns, for a value of n runes under a similar-side edit
// predicate, the longest partner length hi the length filter admits —
// |n − l| ≤ pairBound(max(n, l)) — and tau, the largest bound against any
// admitted partner. The bound never drops and grows by at most one per
// rune (sim.SimilarityBound), so l − bound(l) never drops either: the
// admitted longer lengths are n+1..hi, and tau = bound(hi). When tau
// reaches n, a value of n runes cannot be cut into tau+1 nonempty
// segments, nor does it have q·tau+1 grams; editReach then stops early and
// reports tau = n, and hi is not meaningful. A negative bound is negative
// at every length, and is returned as is. tab is boundAt's table.
func editReach(p rules.Predicate, n int, tab *[]int) (hi, tau int) {
	hi, tau = n, boundAt(p, tab, n)
	if tau < 0 {
		return hi, tau // the verifier accepts no pair at any length
	}
	for tau < n {
		b := boundAt(p, tab, hi+1)
		if hi+1-b > n {
			return hi, tau
		}
		hi, tau = hi+1, b
	}
	return hi, n
}

// ontologySignatures returns the node signature set of the record's mapped
// node: its interned path id appended to buf, the Universal set, or nil
// when the record has no signature. On the similar side it is the τ-ancestor node signature of
// Lemma 4.2: nodes with similarity ≥ θ share their ancestor at depth
// min(τ_n, τ_min).
//
// On the dissimilar side the τ scheme is sound but weak (for small σ it
// degenerates to the root, which everything shares). We instead sign with
// the ancestor at depth d = 1 + ⌊σ·minDepth⌋, where minDepth is the
// shallowest mapped node in the group: if two nodes of depths d_a, d_b ≥ d
// have different ancestors at depth d, their LCA has depth ≤ d−1, so their
// similarity is at most 2(d−1)/(d_a+d_b) ≤ (d−1)/minDepth ≤ σ — exactly the
// "no shared signature ⇒ predicate true" guarantee the negative filter
// needs. Nodes shallower than d emit the wildcard.
func (c *Context) ontologySignatures(p rules.Predicate, r *rules.Record, buf []int32) []int32 {
	node := r.Nodes[p.Attr]
	if node == nil {
		return nil
	}
	var sig *ontology.Node
	if similarSide(p) {
		theta := genThreshold(p)
		if theta <= 0 {
			return universalSigs
		}
		sig = ontology.NodeSignature(node, theta, c.tauMinFor(p))
		if sig == nil {
			return nil
		}
	} else {
		d := 1 + int(math.Floor(p.Threshold*float64(c.minDepthFor(p.Attr))+1e-9))
		if node.Depth < d {
			return universalSigs
		}
		if sig = node.AncestorAt(d); sig == nil {
			return universalSigs
		}
	}
	in := c.nodes[p.Attr]
	if in == nil {
		in, _ = tokenize.NewBuilder(0, 0).Build()
		c.nodes[p.Attr] = in
	}
	return append(buf, in.Intern(sig.String()))
}

// minDepthFor returns (and caches) the minimum depth of the group's mapped
// nodes on an attribute; attributes with no mapped nodes yield 1.
func (c *Context) minDepthFor(attr int) int {
	if v, ok := c.minDepth[attr]; ok {
		return v
	}
	min := math.MaxInt32
	for _, r := range c.records {
		if n := r.Nodes[attr]; n != nil && n.Depth < min {
			min = n.Depth
		}
	}
	if min == math.MaxInt32 {
		min = 1
	}
	c.minDepth[attr] = min
	return min
}

// RuleSignatures returns the per-predicate signature sets of a record w.r.t.
// a whole rule, in predicate order.
func (c *Context) RuleSignatures(r rules.Rule, rec *rules.Record) [][]int32 {
	out := make([][]int32, len(r.Predicates))
	for i, p := range r.Predicates {
		out[i] = c.Signatures(p, rec)
	}
	return out
}

// Validate sanity-checks that the context was built over the given records.
func (c *Context) Validate(recs []*rules.Record) error {
	if len(recs) != len(c.records) {
		return fmt.Errorf("signature: context built over %d records, got %d", len(c.records), len(recs))
	}
	return nil
}

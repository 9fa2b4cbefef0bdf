package signature

import (
	"slices"

	"dime/internal/ontology"
	"dime/internal/rules"
	"dime/internal/tokenize"
)

// Accepts reports whether a new record can be added to this context without
// invalidating the frozen group-level state. Two things can break:
//
//   - a node whose τ is below the frozen τ_min would make Lemma 4.2's node
//     signatures compare at different depths (similar pairs could stop
//     sharing signatures — an incompleteness bug);
//   - a node shallower than the frozen minimum depth would weaken the
//     dissimilar-side depth bound (provably-dissimilar conclusions could
//     become wrong — a soundness bug).
//
// Token and gram orderings never break: the frozen ordering remains one
// consistent global order (unseen tokens rank after all seen ones), which is
// all the prefix lemma needs.
func (c *Context) Accepts(rec *rules.Record, rs rules.RuleSet) bool {
	check := func(p rules.Predicate) bool {
		if p.Fn != rules.Ontology {
			return true
		}
		node := rec.Nodes[p.Attr]
		if node == nil {
			return true // nil nodes have no signatures on either side
		}
		if similarSide(p) {
			return ontology.Tau(node.Depth, genThreshold(p)) >= c.tauMinFor(p)
		}
		return node.Depth >= c.minDepthFor(p.Attr)
	}
	for _, r := range rs.Positive {
		for _, p := range r.Predicates {
			if !check(p) {
				return false
			}
		}
	}
	for _, r := range rs.Negative {
		for _, p := range r.Predicates {
			if !check(p) {
				return false
			}
		}
	}
	return true
}

// Append registers a new record with the context so signature generation can
// use its cached id lists and per-predicate signature sets, and hands the
// record its token id views for verification. Tokens and grams the context
// has not seen get ids after every ranked one (see tokenize.Interner), so
// the global order stays the same order. The caller
// must have verified Accepts first, and must have set rec.Index to the
// current record count.
func (c *Context) Append(rec *rules.Record) {
	for _, sp := range c.tokens {
		if sp != nil {
			ids := sp.in.AppendDoc(nil, rec.Tokens[sp.attr])
			sp.ids = append(sp.ids, ids)
			sp.view(rec, ids)
		}
	}
	for _, sp := range c.grams {
		c.gramBuf = tokenize.AppendQGrams(c.gramBuf[:0], rec.Joined[sp.attr], sp.q)
		sp.ids = append(sp.ids, sp.in.AppendDoc(nil, c.gramBuf))
	}
	c.records = append(c.records, rec)
	// Extend each cached predicate's signature list in preparation order,
	// so ontology paths first seen here get the same ids on every run.
	for _, p := range c.prepared {
		c.sigCache[p] = append(c.sigCache[p], c.computeSignatures(p, rec))
	}
}

// Add indexes one new record (which must already carry its final Index,
// equal to the current record count) and returns the candidate pairs the
// new record forms with existing records, ordered by the partner's index.
// The completeness guarantee is unchanged: any existing record that could
// satisfy the rule together with the new one is returned.
func (ix *PosIndex) Add(ctx *Context, rec *rules.Record) []Candidate {
	ri := ix.n
	ix.n++
	ix.sigCounts = append(ix.sigCounts, 0)

	// Choose the probe predicate: the one where the new record is not a
	// wildcard and its signature lists are shortest.
	probe := -1
	probeCost := int(^uint(0) >> 1)
	for pi, p := range ix.Rule.Predicates {
		sigs := ctx.Signatures(p, rec)
		ix.sigCounts[ri] += len(sigs)
		if isUniversal(sigs) {
			continue
		}
		pd := &ix.perPred[pi]
		cost := len(pd.wildcards)
		for _, id := range sigs {
			cost += len(pd.posting(id))
		}
		if cost < probeCost {
			probe, probeCost = pi, cost
		}
	}

	var matched []int
	if probe < 0 {
		// Wildcard on every predicate: the new record pairs with everyone.
		matched = make([]int, ri)
		for i := range matched {
			matched[i] = i
		}
	} else {
		pd := &ix.perPred[probe]
		matched = make([]int, 0, probeCost)
		for _, id := range ctx.Signatures(ix.Rule.Predicates[probe], rec) {
			matched = append(matched, pd.posting(id)...)
		}
		matched = append(matched, pd.wildcards...)
		slices.Sort(matched)
		matched = slices.Compact(matched)
	}

	// Register the new record in every predicate, then count what each
	// matched partner shares with it.
	for pi, p := range ix.Rule.Predicates {
		pd := &ix.perPred[pi]
		sigs := ctx.Signatures(p, rec)
		wild := isUniversal(sigs)
		pd.isWild = append(pd.isWild, wild)
		if wild {
			pd.wildcards = append(pd.wildcards, ri)
			pd.sigs = append(pd.sigs, nil)
			continue
		}
		pd.sigs = append(pd.sigs, sigs)
		for _, id := range sigs {
			l := pd.list(id)
			*l = append(*l, ri)
		}
	}
	ix.cover(&ix.added)
	ix.fix(&ix.added, ri)

	var out []Candidate
	for _, other := range matched {
		if shared, ok := ix.shared(&ix.added, other); ok {
			out = append(out, Candidate{I: other, J: ri, Shared: shared})
		}
	}
	return out
}

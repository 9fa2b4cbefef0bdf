package core

import (
	"slices"

	"dime/internal/entity"
	"dime/internal/obs"
	"dime/internal/rules"
	"dime/internal/signature"
)

// DIMEPlus runs the signature-based algorithm (Algorithm 2). The filter step
// builds per-rule inverted indexes over prefix / q-gram / ontology-node
// signatures so only candidate pairs are verified; the verify step orders
// candidates by benefit (similarity probability over verification cost for
// positive rules, its reciprocal for negative rules) and exploits
// transitivity and early exit to skip work.
func DIMEPlus(g *entity.Group, opts Options) (*Result, error) {
	if err := opts.validate(g); err != nil {
		return nil, err
	}
	run := obs.Start(opts.Probe, "dime+", obs.A("group", g.Name))
	defer run.End()
	st, err := newStep1(run, g, &opts, true)
	if err != nil {
		return nil, err
	}
	// Step 1 verifies candidates in benefit order; steps 2 and 3 pick the
	// pivot partition and apply the negative rules with signature filtering.
	st.partition(run, !opts.DisableBenefitOrder)
	return st.result(run, g), nil
}

// negCand is one pivot record awaiting verification against a probed entity,
// ranked by benefit 1/(C·P).
type negCand struct {
	p       int32
	benefit float32
}

// negScratch bundles the buffers plusMarkPartition reuses across partitions:
// the signature-probe scratch and the candidate slice. One scratch per
// goroutine; the zero value is ready to use.
type negScratch struct {
	probe signature.ProbeScratch
	cands []negCand
}

// plusMarkPartition probes each entity of an outside partition against the
// pivot. A probe that finds a provably dissimilar pivot record marks the
// partition at once; otherwise that entity's uncertain pairs are verified in
// benefit order 1/(C·P) — fewest shared signatures and cheapest verification
// first — with early exit on the first satisfied pair. Processing entity by
// entity keeps the memory footprint at O(|pivot|) and lets the common case
// (a genuinely mis-categorized partition) resolve after a handful of
// verifications.
//
// The function is a pure function of (partition, pivot, rule) that records
// its work on stats — it reads only immutable records and the read-only
// negative filter — so applyNegativeRules can run independent partitions on
// concurrent workers and fold the per-partition stats back in partition
// order, reproducing the sequential counters exactly. The scratch carries
// probe and candidate buffers reused across partitions; each goroutine owns
// its own.
func plusMarkPartition(stats *Stats, nf *signature.NegFilter, neg rules.Rule,
	part, pivot []*rules.Record, opts Options, sc *negScratch) (Witness, bool) {

	cands := sc.cands[:0]
	for _, e := range part {
		certain := nf.ProbeInto(e, &sc.probe)
		if certain >= 0 {
			stats.CertainPairsBySignature++
			return Witness{
				Rule:     neg.Name,
				EntityID: e.Entity.ID,
				PivotID:  pivot[certain].Entity.ID,
			}, true
		}
		cands = cands[:0]
		// The probability estimate divides by the number of pivot records
		// sharing anything with e (the old Probe's len(Shared) map length).
		nonzero := sc.probe.NonzeroShared()
		for pi, p := range pivot {
			shared := sc.probe.SharedCount(pi)
			prob := (float64(shared) + 0.5) / (float64(nonzero) + 1)
			cost := neg.Cost(e, p)
			if cost < 1 {
				cost = 1
			}
			cands = append(cands, negCand{p: int32(pi), benefit: float32(1 / (cost * prob))})
		}
		sc.cands = cands // keep capacity growth for the next partition
		if !opts.DisableBenefitOrder {
			slices.SortFunc(cands, func(a, b negCand) int {
				switch {
				case a.benefit > b.benefit:
					return -1
				case a.benefit < b.benefit:
					return 1
				default:
					return int(a.p) - int(b.p)
				}
			})
		}
		for _, c := range cands {
			stats.NegativeVerified++
			if neg.Eval(e, pivot[c.p]) {
				return Witness{
					Rule:     neg.Name,
					EntityID: e.Entity.ID,
					PivotID:  pivot[c.p].Entity.ID,
				}, true
			}
		}
	}
	return Witness{}, false
}

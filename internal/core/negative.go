package core

import (
	"fmt"
	"sync"

	"dime/internal/obs"
	"dime/internal/rules"
	"dime/internal/signature"
)

// survivor is one non-pivot partition that outlived the signature filter of
// the current negative rule and must be verified.
type survivor struct {
	pi   int
	recs []*rules.Record
}

// applyNegativeRules runs pivot selection and the negative-rule sequence
// (steps 2–3 of Algorithm 2) over res.Partitions; step1.result runs it for
// both DIMEPlus and Session.Result. For each negative rule the partition-level
// signature filter sweeps first (negative-filter phase: partitions whose
// signature unions are provably disjoint from the pivot's are marked without
// any verification), then the surviving partitions are probed and verified
// in benefit order (negative-verify phase). The two sub-passes touch
// disjoint partitions, so splitting them per rule changes neither the marked
// set nor the stats relative to the historical interleaved loop.
//
// With Options.IntraWorkers != 1 the verify sub-pass fans the surviving
// partitions out to worker goroutines: partitions are independent — each
// verification is a pure function of (partition, pivot, rule) — so marking
// them concurrently and folding the per-partition outcomes back in
// partition order reproduces the sequential marked set, witnesses and
// stats exactly.
func applyNegativeRules(res *Result, run obs.Span, ctx *signature.Context, recs []*rules.Record, opts Options) {
	res.Pivot = pivotOf(res.Partitions)
	pivotIdx := res.Partitions[res.Pivot]
	pivotRecs := make([]*rules.Record, len(pivotIdx))
	for k, ei := range pivotIdx {
		pivotRecs[k] = recs[ei]
	}

	// Resolve each non-pivot partition's record slice once; the per-rule
	// passes below only read them.
	partRecs := make([][]*rules.Record, len(res.Partitions))
	for pi, part := range res.Partitions {
		if pi == res.Pivot {
			continue
		}
		rs := make([]*rules.Record, len(part))
		for k, ei := range part {
			rs[k] = recs[ei]
		}
		partRecs[pi] = rs
	}

	marked := make(map[int]bool)
	res.Witnesses = make(map[int]Witness)
	for _, neg := range opts.Rules.Negative {
		fsp := run.StartSpan(obs.PhaseNegativeFilter, obs.A("rule", neg.Name))
		nf := signature.BuildNegative(ctx, neg, pivotRecs)
		filteredBefore := res.Stats.PartitionsFilteredBySignature
		var survivors []survivor
		for pi := range res.Partitions {
			if pi == res.Pivot || marked[pi] {
				continue
			}
			if nf.PartitionMustSatisfy(partRecs[pi]) {
				marked[pi] = true
				res.Stats.PartitionsFilteredBySignature++
				res.Witnesses[pi] = Witness{Rule: neg.Name}
				continue
			}
			survivors = append(survivors, survivor{pi: pi, recs: partRecs[pi]})
		}
		fsp.Count("partitions-filtered", res.Stats.PartitionsFilteredBySignature-filteredBefore)
		fsp.End()

		vsp := run.StartSpan(obs.PhaseNegativeVerify, obs.A("rule", neg.Name))
		verifiedBefore := res.Stats.NegativeVerified
		certainBefore := res.Stats.CertainPairsBySignature
		markSurvivors(res, vsp, nf, neg, survivors, pivotRecs, opts, marked)
		vsp.Count("verified", res.Stats.NegativeVerified-verifiedBefore)
		vsp.Count("certain-pairs", res.Stats.CertainPairsBySignature-certainBefore)
		vsp.End()
		res.Levels = append(res.Levels, levelFrom(res.Group, res.Partitions, marked, neg.Name))
	}
}

// markSurvivors verifies the surviving partitions of one negative rule,
// sequentially or across opts.IntraWorkers goroutines. Workers are assigned
// partitions by striding (worker w takes survivors w, w+wk, ...) so the
// per-worker span counters are as deterministic as the totals; outcomes are
// folded back in survivor order, making marked set, witnesses and stats
// byte-identical to the sequential loop.
func markSurvivors(res *Result, vsp obs.Span, nf *signature.NegFilter, neg rules.Rule,
	survivors []survivor, pivotRecs []*rules.Record, opts Options, marked map[int]bool) {

	wk := opts.intraWorkers(len(survivors))
	if wk <= 1 {
		var sc negScratch
		for _, sv := range survivors {
			if w, ok := plusMarkPartition(&res.Stats, nf, neg, sv.recs, pivotRecs, opts, &sc); ok {
				marked[sv.pi] = true
				res.Witnesses[sv.pi] = w
			}
		}
		return
	}

	type outcome struct {
		w     Witness
		ok    bool
		stats Stats
	}
	outs := make([]outcome, len(survivors))
	perWorkerVerified := make([]int64, wk)
	var wg sync.WaitGroup
	for w := 0; w < wk; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sc negScratch
			for k := w; k < len(survivors); k += wk {
				o := &outs[k]
				o.w, o.ok = plusMarkPartition(&o.stats, nf, neg, survivors[k].recs, pivotRecs, opts, &sc)
				perWorkerVerified[w] += o.stats.NegativeVerified
			}
		}(w)
	}
	wg.Wait()
	for k, o := range outs {
		res.Stats.Add(o.stats)
		if o.ok {
			marked[survivors[k].pi] = true
			res.Witnesses[survivors[k].pi] = o.w
		}
	}
	vsp.Count("workers", int64(wk))
	for w, v := range perWorkerVerified {
		vsp.Count(fmt.Sprintf("verified/w%d", w), v)
	}
}

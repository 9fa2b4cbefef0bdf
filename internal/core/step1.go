package core

import (
	"fmt"
	"slices"

	"dime/internal/entity"
	"dime/internal/obs"
	"dime/internal/partition"
	"dime/internal/rules"
	"dime/internal/signature"
)

// step1 is the state of step 1 (Algorithm 2 lines 1–6): the compiled
// records, the signature context, one inverted index per positive rule, the
// union–find holding the partitions, and the verifier that feeds it. DIMEPlus
// and Session are thin drivers of it; Session also grows it entity by entity.
type step1 struct {
	opts    *Options
	recs    []*rules.Record
	ctx     *signature.Context
	indexes []*signature.PosIndex
	uf      *partition.UnionFind
	stats   Stats // positive-phase counters only; result copies them
	pver    *posVerifier
}

// newStep1 compiles the group into records and builds the signature context
// and positive indexes under the record-compile and signature-build spans of
// run. With parallel set the verifier takes opts.IntraWorkers workers;
// otherwise it verifies inline on the calling goroutine.
func newStep1(run obs.Span, g *entity.Group, opts *Options, parallel bool) (*step1, error) {
	sp := run.StartSpan(obs.PhaseRecordCompile)
	recs, err := opts.Config.NewRecords(g)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.Count("records", int64(len(recs)))
	sp.End()

	sb := run.StartSpan(obs.PhaseSignatureBuild)
	s := &step1{
		opts:    opts,
		recs:    recs,
		ctx:     signature.NewContext(opts.Config, recs, opts.Rules),
		indexes: make([]*signature.PosIndex, len(opts.Rules.Positive)),
		uf:      partition.New(len(recs)),
	}
	for ri, rule := range opts.Rules.Positive {
		rsp := sb.StartSpan(obs.PhaseSignatureBuild, obs.A("rule", rule.Name))
		s.indexes[ri] = signature.BuildPositive(s.ctx, rule, recs)
		rsp.End()
	}
	sb.End()
	workers := 1
	if parallel {
		workers = opts.intraWorkers(len(recs))
	}
	s.pver = newPosVerifier(s, workers)
	return s, nil
}

// defaultBenefitSortLimit is the BenefitSortLimit zero and negative values
// select.
const defaultBenefitSortLimit = 1 << 15

// partition verifies every candidate of the positive indexes under
// transitivity: sorted, in global benefit order (Algorithm 2 line 5) up to
// BenefitSortLimit candidates, else as they stream off the inverted lists —
// the partitions are identical, and sorting millions would cost more.
func (s *step1) partition(run obs.Span, sorted bool) {
	before := s.stats
	sortLimit := s.opts.BenefitSortLimit
	if sortLimit <= 0 {
		sortLimit = defaultBenefitSortLimit
	}
	positive := s.opts.Rules.Positive
	perRuleCands := make([]int64, len(positive))
	var cands []posCand
	if sorted {
		// Size the buffer once: the indexes bound their candidate counts,
		// and it never holds more than sortLimit. Past the default limit
		// the bounds overshoot too far to reserve up front; append grows.
		est := 0
		for _, ix := range s.indexes {
			est = min(est+ix.PairEstimate(), sortLimit, defaultBenefitSortLimit)
		}
		cands = make([]posCand, 0, est)
	}
	// Candidate generation: streaming verification interleaves here; its
	// verified counters still land on the positive-verify span below.
	cg := run.StartSpan(obs.PhaseCandidateGen)
	for ri, ix := range s.indexes {
		rule := positive[ri]
		ix.ForEach(func(c signature.Candidate) {
			perRuleCands[ri]++
			if !sorted {
				s.stream(c, ri)
				return
			}
			s.stats.PositivePairsConsidered++
			avg := float64(ix.SigCount(c.I)+ix.SigCount(c.J)) / 2
			if avg < 1 {
				avg = 1
			}
			prob := float64(c.Shared) / avg
			if prob <= 0 {
				prob = 1e-6 // wildcard-only candidates still need a rank
			}
			cost := rule.Cost(s.recs[c.I], s.recs[c.J])
			if cost < 1 {
				cost = 1
			}
			pc := posCand{i: int32(c.I), j: int32(c.J), rule: int32(ri), benefit: prob / cost}
			if len(cands) == sortLimit {
				// Too many to sort profitably: flush what we have and this
				// candidate in arrival order and fall back to streaming.
				sorted = false
				for _, held := range cands {
					s.pver.add(held)
				}
				s.pver.add(pc)
				cands = nil
				return
			}
			cands = append(cands, pc)
		})
	}
	if !sorted {
		s.pver.flush() // drain the last partial chunk inside this span
	}
	cg.Count("candidates", s.stats.PositivePairsConsidered-before.PositivePairsConsidered)
	for ri, rule := range positive {
		cg.Count("candidates/"+rule.Name, perRuleCands[ri])
	}
	cg.End()

	pv := run.StartSpan(obs.PhasePositiveVerify)
	if sorted {
		slices.SortFunc(cands, func(a, b posCand) int {
			switch {
			case a.benefit > b.benefit:
				return -1
			case a.benefit < b.benefit:
				return 1
			case a.i != b.i:
				return int(a.i) - int(b.i)
			case a.j != b.j:
				return int(a.j) - int(b.j)
			default:
				return int(a.rule) - int(b.rule)
			}
		})
		for _, pc := range cands {
			s.pver.add(pc)
		}
		s.pver.flush()
	}
	pv.Count("verified", s.stats.PositiveVerified-before.PositiveVerified)
	pv.Count("skipped-transitivity", s.stats.PositiveSkippedByTransitivity-before.PositiveSkippedByTransitivity)
	for ri, rule := range positive {
		pv.Count("verified/"+rule.Name, s.pver.perRuleVerified[ri])
	}
	s.pver.report(pv)
	pv.End()
}

// add compiles one entity and folds it into the partitioning: only the new
// record's candidate pairs (PosIndex.Add) go through the verifier. It
// reports false, changing nothing, when the record undercuts the frozen
// signature depth floors and the state must be rebuilt instead.
func (s *step1) add(run obs.Span, e *entity.Entity) (bool, error) {
	sp := run.StartSpan(obs.PhaseRecordCompile)
	rec, err := s.opts.Config.NewRecord(e)
	sp.End()
	if err != nil {
		return false, fmt.Errorf("core: compiling %q: %w", e.ID, err)
	}
	if !s.ctx.Accepts(rec, s.opts.Rules) {
		return false, nil
	}
	rec.Index = len(s.recs)
	s.recs = append(s.recs, rec)
	sb := run.StartSpan(obs.PhaseSignatureBuild)
	s.ctx.Append(rec)
	sb.End()
	s.uf.Grow()
	before := s.stats
	cg := run.StartSpan(obs.PhaseCandidateGen)
	for ri, ix := range s.indexes {
		for _, c := range ix.Add(s.ctx, rec) {
			s.stream(c, ri)
		}
	}
	s.pver.flush()
	cg.Count("candidates", s.stats.PositivePairsConsidered-before.PositivePairsConsidered)
	cg.End()
	pv := run.StartSpan(obs.PhasePositiveVerify)
	pv.Count("verified", s.stats.PositiveVerified-before.PositiveVerified)
	pv.Count("skipped-transitivity", s.stats.PositiveSkippedByTransitivity-before.PositiveSkippedByTransitivity)
	pv.End()
	return true, nil
}

// stream counts one candidate of a positive rule and verifies it in
// arrival order.
func (s *step1) stream(c signature.Candidate, rule int) {
	s.stats.PositivePairsConsidered++
	s.pver.add(posCand{i: int32(c.I), j: int32(c.J), rule: int32(rule)})
}

// result reads the current partitions and runs steps 2 and 3 — pivot
// selection and the negative rules — over them. It leaves the step-1 state
// untouched, so repeated calls return equal Results.
func (s *step1) result(run obs.Span, g *entity.Group) *Result {
	res := &Result{Group: g, Pivot: -1, Stats: s.stats}
	if len(s.recs) == 0 {
		return res
	}
	res.Partitions = s.uf.Sets()
	applyNegativeRules(res, run, s.ctx, s.recs, *s.opts)
	return res
}

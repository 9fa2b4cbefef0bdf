package core

import (
	"fmt"
	"runtime"
	"sync"

	"dime/internal/obs"
)

// posChunkPerWorker sizes the speculative-evaluation chunks of the parallel
// positive phase, per worker. Larger chunks amortize goroutine handoff;
// smaller chunks bound the evaluations wasted on pairs that replay discovers
// were already joined by an earlier candidate of the same chunk.
const posChunkPerWorker = 512

// posMinPerWorker is the smallest slice of a chunk worth handing to a
// goroutine; the final partial chunk of a run spawns fewer workers than the
// configured count rather than splitting a handful of pairs eight ways.
const posMinPerWorker = 32

// intraWorkers resolves Options.IntraWorkers for a phase with the given
// number of independently shardable items: ≤ 0 selects the GOMAXPROCS
// default, and the result is clamped to the item count (never below 1).
// Explicit positive values are honored beyond GOMAXPROCS so tests can
// exercise the parallel path on any machine.
func (o *Options) intraWorkers(items int) int {
	w := o.IntraWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// posCand is one candidate pair under one positive rule, with the benefit
// DIME+ sorts by (similarity probability over verification cost).
type posCand struct {
	i, j    int32
	rule    int32
	benefit float64
}

// posVerifier runs positive-phase verification. With one worker it verifies
// each candidate inline, exactly as the historical sequential loop. With
// several it buffers candidates in arrival order and, chunk by chunk,
// evaluates the rule predicates speculatively in parallel before replaying
// the chunk sequentially.
//
// The replay is what makes the parallel path provably equivalent: rule
// evaluation is a pure function of the two records, so precomputing it off
// the critical path changes nothing, and every union–find read, skip
// decision, stats increment and union happens on the replay goroutine in
// the exact arrival order the sequential loop would have used. Partitions
// and Stats are therefore byte-identical for every worker count; the only
// cost is that a pair joined by an earlier candidate of its own chunk was
// evaluated for nothing (counted as speculative-wasted on the span).
type posVerifier struct {
	st *step1 // records, union–find and stats the verifier reads and updates

	perRuleVerified []int64
	workers         int
	buf             []posCand
	skip            []bool // per buffered candidate: joined before the chunk
	holds           []bool // per buffered candidate: speculative Eval result

	perWorkerEvals []int64 // speculative evaluations per worker index
	specWasted     int64   // speculative evaluations discarded at replay
}

// newPosVerifier builds the verifier over st; workers should be 1 or come
// from opts.intraWorkers.
func newPosVerifier(st *step1, workers int) *posVerifier {
	v := &posVerifier{
		st:              st,
		perRuleVerified: make([]int64, len(st.opts.Rules.Positive)),
		workers:         workers,
	}
	if workers > 1 {
		v.perWorkerEvals = make([]int64, workers)
	}
	return v
}

// add feeds one candidate in arrival order, flushing a full chunk.
func (v *posVerifier) add(c posCand) {
	if v.workers <= 1 {
		v.verifySeq(c)
		return
	}
	v.buf = append(v.buf, c)
	if len(v.buf) >= v.workers*posChunkPerWorker {
		v.flush()
	}
}

// verifySeq is the historical sequential verification step: transitivity
// skip, stats, evaluate, union.
func (v *posVerifier) verifySeq(c posCand) {
	st, i, j, ri := v.st, int(c.i), int(c.j), int(c.rule)
	if !st.opts.DisableTransitivitySkip && st.uf.Same(i, j) {
		st.stats.PositiveSkippedByTransitivity++
		return
	}
	st.stats.PositiveVerified++
	v.perRuleVerified[ri]++
	if st.opts.Rules.Positive[ri].Eval(st.recs[i], st.recs[j]) {
		st.uf.Union(i, j)
	}
}

// flush speculatively evaluates the buffered chunk in parallel and replays
// it sequentially. Callers must invoke it once more after the last add; it
// is a no-op on an empty buffer.
func (v *posVerifier) flush() {
	n := len(v.buf)
	if n == 0 {
		return
	}
	if cap(v.skip) < n {
		v.skip = make([]bool, n)
		v.holds = make([]bool, n)
	}
	st := v.st
	skip, holds := v.skip[:n], v.holds[:n]
	// Pre-pass on the owning goroutine: union–find reads mutate (path
	// halving), so workers never touch it. A pair already joined here would
	// be skipped by the sequential loop too — connectivity only grows — so
	// its evaluation is never needed.
	for k, c := range v.buf {
		skip[k] = !st.opts.DisableTransitivitySkip && st.uf.Same(int(c.i), int(c.j))
		holds[k] = false
	}
	// The final partial chunk may be far smaller than a full one; shrink the
	// worker count so each goroutine has a meaningful slice. The count
	// depends only on n, keeping per-worker counters deterministic.
	wk := v.workers
	if max := (n + posMinPerWorker - 1) / posMinPerWorker; wk > max {
		wk = max
	}
	var wg sync.WaitGroup
	for w := 0; w < wk; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var evals int64
			for k := w; k < n; k += wk {
				if skip[k] {
					continue
				}
				c := v.buf[k]
				holds[k] = st.opts.Rules.Positive[c.rule].Eval(st.recs[c.i], st.recs[c.j])
				evals++
			}
			v.perWorkerEvals[w] += evals
		}(w)
	}
	wg.Wait()
	// Deterministic replay in arrival order: byte-for-byte the decisions the
	// sequential loop makes, with the expensive evaluations already in hand.
	for k, c := range v.buf {
		i, j, ri := int(c.i), int(c.j), int(c.rule)
		if !st.opts.DisableTransitivitySkip && st.uf.Same(i, j) {
			st.stats.PositiveSkippedByTransitivity++
			if !skip[k] {
				v.specWasted++ // joined mid-chunk; its evaluation was discarded
			}
			continue
		}
		st.stats.PositiveVerified++
		v.perRuleVerified[ri]++
		if holds[k] {
			st.uf.Union(i, j)
		}
	}
	v.buf = v.buf[:0]
}

// report attaches the parallel-path counters to the positive-verify span;
// it is a no-op for the sequential path so traces stay unchanged there.
func (v *posVerifier) report(sp obs.Span) {
	if v.workers <= 1 {
		return
	}
	sp.Count("workers", int64(v.workers))
	var total int64
	for w, evals := range v.perWorkerEvals {
		sp.Count(fmt.Sprintf("speculative-evals/w%d", w), evals)
		total += evals
	}
	sp.Count("speculative-evals", total)
	sp.Count("speculative-wasted", v.specWasted)
}

// Package difftest generates randomized discovery workloads and checks that
// every algorithm variant agrees on them: DIME (Algorithm 1) and DIME+
// (Algorithm 2) must produce the same partitions, pivot and scrollbar levels,
// and DIME+ must produce byte-identical results — stats and witnesses
// included — for every Options.IntraWorkers setting and from an incremental
// core.Session, which runs the same step-1 engine.
//
// The package is the differential harness behind dime_difftest_test.go and
// FuzzDiffDIMEPlus at the repository root: tests build a Corpus of seeded
// cases (cycling the Scholar, Amazon and DBGen generators of
// internal/datagen) and run Check over each; fuzzing feeds decoded groups
// through the same Diff comparison. DiffServe (http.go) replays a case over
// the HTTP API, fault-free or under injected faults. Failures always carry
// the case seed so a divergence reproduces from a one-line test filter.
package difftest

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"

	"dime/internal/core"
	"dime/internal/datagen"
	"dime/internal/entity"
	"dime/internal/obs"
	"dime/internal/presets"
	"dime/internal/rules"
)

// Case is one generated discovery workload: a group plus the configuration
// and rule set to run it under. Seed reproduces the group via the generator
// named in Name.
type Case struct {
	// Name identifies the case: ordinal, generator flavour, and size.
	Name string
	// Seed is the generator seed the group was built from.
	Seed int64
	// Group is the input group.
	Group *entity.Group
	// Config compiles the group's entities into records.
	Config *rules.Config
	// Rules is the positive/negative rule set to discover with.
	Rules rules.RuleSet
	// Probe, when non-nil, is attached to every run Diff performs, so the
	// harness can prove instrumentation (e.g. the flight recorder) does not
	// perturb results. Probes must be safe for the concurrent spans the
	// parallel variants open.
	Probe obs.Probe
}

// Corpus generates n cases deterministically from baseSeed, cycling the
// Scholar, Amazon and DBGen generators with randomized sizes (roughly 30–150
// entities per group) and error rates. Amazon corpora produce one group per
// category, so consecutive Amazon cases drain one corpus before a fresh one
// is generated.
func Corpus(n int, baseSeed int64) []Case {
	rng := rand.New(rand.NewSource(baseSeed))
	cases := make([]Case, 0, n)
	var amz *amazonPool
	for i := 0; i < n; i++ {
		seed := rng.Int63()
		switch i % 3 {
		case 0:
			cases = append(cases, scholarCase(i, rng, seed))
		case 1:
			if amz == nil || amz.exhausted() {
				amz = newAmazonPool(rng, seed)
			}
			cases = append(cases, amz.take(i))
		default:
			cases = append(cases, dbgenCase(i, rng, seed))
		}
	}
	return cases
}

// scholarCase builds one synthetic Scholar page case.
func scholarCase(i int, rng *rand.Rand, seed int64) Case {
	numPubs := 30 + rng.Intn(91) // 30–120 correct publications
	errRate := 0.05 + 0.25*rng.Float64()
	g := datagen.Scholar(datagen.ScholarOptions{NumPubs: numPubs, ErrorRate: errRate, Seed: seed})
	cfg := presets.ScholarConfig()
	return Case{
		Name:   fmt.Sprintf("%03d-scholar-n%d", i, len(g.Entities)),
		Seed:   seed,
		Group:  g,
		Config: cfg,
		Rules:  presets.ScholarRules(cfg),
	}
}

// dbgenCase builds one DBGen-style perturbed-cluster case.
func dbgenCase(i int, rng *rand.Rand, seed int64) Case {
	num := 40 + rng.Intn(111) // 40–150 entities
	errRate := 0.05 + 0.25*rng.Float64()
	g := datagen.DBGen(datagen.DBGenOptions{NumEntities: num, ErrorRate: errRate, Seed: seed})
	cfg := presets.DBGenConfig()
	return Case{
		Name:   fmt.Sprintf("%03d-dbgen-n%d", i, len(g.Entities)),
		Seed:   seed,
		Group:  g,
		Config: cfg,
		Rules:  presets.DBGenRules(cfg),
	}
}

// amazonPool hands out the groups of one generated Amazon corpus one case at
// a time; a corpus covers every category, so one generation feeds dozens of
// cases.
type amazonPool struct {
	seed  int64
	cfg   *rules.Config
	rs    rules.RuleSet
	pages []*entity.Group
	next  int
}

func newAmazonPool(rng *rand.Rand, seed int64) *amazonPool {
	per := 20 + rng.Intn(21) // 20–40 native products per category
	errRate := 0.05 + 0.25*rng.Float64()
	c := datagen.Amazon(datagen.AmazonOptions{ProductsPerCategory: per, ErrorRate: errRate, Seed: seed})
	cfg := presets.AmazonConfig(c.TrueTree, c.TrueMapper())
	return &amazonPool{seed: seed, cfg: cfg, rs: presets.AmazonRules(cfg), pages: c.Groups}
}

func (p *amazonPool) exhausted() bool { return p.next >= len(p.pages) }

func (p *amazonPool) take(i int) Case {
	g := p.pages[p.next]
	p.next++
	return Case{
		Name:   fmt.Sprintf("%03d-amazon-%s-n%d", i, g.Name, len(g.Entities)),
		Seed:   p.seed,
		Group:  g,
		Config: p.cfg,
		Rules:  p.rs,
	}
}

// TB is the subset of testing.TB the harness needs; both *testing.T and the
// fuzz-target T satisfy it.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
}

// Check runs the case through Diff and fails the test with the case name and
// seed on the first divergence, so any failure is reproducible offline.
func Check(t TB, c Case, workers ...int) {
	t.Helper()
	if err := c.Diff(workers...); err != nil {
		t.Fatalf("case %s (seed %d): %v", c.Name, c.Seed, err)
	}
}

// Diff runs DIME, sequential DIME+ (IntraWorkers=1), one parallel DIME+ per
// workers entry, and two incremental sessions over the case, and returns an
// error describing the first divergence:
//
//   - DIME and DIME+ must agree semantically — partitions, pivot, every
//     scrollbar level, and the marked partitions with their marking rules.
//     Stats and witnessing pairs legitimately differ between the algorithms.
//   - Sequential and parallel DIME+ must agree exactly — the whole Result,
//     stats and witnesses included, must be deeply equal for every worker
//     count.
//   - A session built over the whole group must agree exactly with
//     streaming sequential DIME+ (BenefitSortLimit=1): the two share one
//     step-1 engine.
//   - A session seeded with two entities and fed the rest through Add must
//     agree semantically with DIME+; its stats depend on arrival order.
func (c Case) Diff(workers ...int) error {
	base := core.Options{Config: c.Config, Rules: c.Rules, Probe: c.Probe}
	want, err := core.DIME(c.Group, base)
	if err != nil {
		return fmt.Errorf("DIME: %w", err)
	}
	seqOpts := base
	seqOpts.IntraWorkers = 1
	seq, err := core.DIMEPlus(c.Group, seqOpts)
	if err != nil {
		return fmt.Errorf("DIME+(sequential): %w", err)
	}
	if err := semanticDiff(want, seq); err != nil {
		return fmt.Errorf("DIME vs DIME+(sequential): %w", err)
	}
	for _, w := range workers {
		parOpts := base
		parOpts.IntraWorkers = w
		par, err := core.DIMEPlus(c.Group, parOpts)
		if err != nil {
			return fmt.Errorf("DIME+(workers=%d): %w", w, err)
		}
		if err := exactDiff(seq, par); err != nil {
			return fmt.Errorf("DIME+(sequential) vs DIME+(workers=%d): %w", w, err)
		}
	}
	return c.diffSession(base, seq)
}

// diffSession checks the two incremental sessions against DIME+.
func (c Case) diffSession(base core.Options, seq *core.Result) error {
	whole, err := core.NewSession(c.Group, base)
	if err != nil {
		return fmt.Errorf("session(whole): %w", err)
	}
	got, err := whole.Result()
	if err != nil {
		return fmt.Errorf("session(whole): %w", err)
	}
	streamOpts := base
	streamOpts.IntraWorkers, streamOpts.BenefitSortLimit = 1, 1
	stream, err := core.DIMEPlus(c.Group, streamOpts)
	if err != nil {
		return fmt.Errorf("DIME+(streaming): %w", err)
	}
	if err := exactDiff(stream, got); err != nil {
		return fmt.Errorf("DIME+(streaming) vs session(whole): %w", err)
	}

	seeded := entity.NewGroup(c.Group.Name, c.Group.Schema)
	k := min(2, len(c.Group.Entities))
	for _, e := range c.Group.Entities[:k] {
		if err := seeded.Add(e); err != nil {
			return err
		}
	}
	sess, err := core.NewSession(seeded, base)
	if err != nil {
		return fmt.Errorf("session(seeded): %w", err)
	}
	for _, e := range c.Group.Entities[k:] {
		if _, err := sess.Add(e); err != nil {
			return fmt.Errorf("session(seeded): %w", err)
		}
	}
	if got, err = sess.Result(); err != nil {
		return fmt.Errorf("session(seeded): %w", err)
	}
	if err := semanticDiff(seq, got); err != nil {
		return fmt.Errorf("DIME+(sequential) vs session(seeded): %w", err)
	}
	return nil
}

// semanticDiff compares the algorithm-independent output of two runs:
// partitions, pivot, levels, and marked partitions with their marking rules.
func semanticDiff(a, b *core.Result) error {
	if !reflect.DeepEqual(a.Partitions, b.Partitions) {
		return fmt.Errorf("partitions differ:\n  a: %v\n  b: %v", a.Partitions, b.Partitions)
	}
	if a.Pivot != b.Pivot {
		return fmt.Errorf("pivot differs: %d vs %d", a.Pivot, b.Pivot)
	}
	if !reflect.DeepEqual(a.Levels, b.Levels) {
		return fmt.Errorf("levels differ:\n  a: %+v\n  b: %+v", a.Levels, b.Levels)
	}
	for _, pi := range markedOf(a) {
		aw, bw := a.Witnesses[pi], b.Witnesses[pi]
		if aw.Rule != bw.Rule {
			return fmt.Errorf("partition %d marked by different rules: %q vs %q", pi, aw.Rule, bw.Rule)
		}
	}
	if la, lb := len(a.Witnesses), len(b.Witnesses); la != lb {
		return fmt.Errorf("witness counts differ: %d vs %d", la, lb)
	}
	return nil
}

// exactDiff requires two runs to be byte-identical, field by field so a
// failure names the diverging field instead of dumping two structs.
func exactDiff(a, b *core.Result) error {
	if err := semanticDiff(a, b); err != nil {
		return err
	}
	for _, pi := range markedOf(a) {
		if aw, bw := a.Witnesses[pi], b.Witnesses[pi]; aw != bw {
			return fmt.Errorf("witness for partition %d differs: %+v vs %+v", pi, aw, bw)
		}
	}
	if a.Stats != b.Stats {
		return fmt.Errorf("stats differ:\n  a: %+v\n  b: %+v", a.Stats, b.Stats)
	}
	return nil
}

// markedOf returns the sorted marked-partition indexes of a result.
func markedOf(r *core.Result) []int {
	out := make([]int, 0, len(r.Witnesses))
	for pi := range r.Witnesses {
		out = append(out, pi)
	}
	sort.Ints(out)
	return out
}

package core

import (
	"math/rand"
	"reflect"
	"testing"

	"dime/internal/datagen"
	"dime/internal/entity"
	"dime/internal/fixtures"
	"dime/internal/presets"
)

// TestSessionMatchesBatch is the incremental-maintenance invariant: feeding
// a group entity by entity yields exactly the partitions, levels and
// discoveries a from-scratch DIME+ run produces.
func TestSessionMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		full, opts := randomGroup(rng, 8+rng.Intn(25))

		// Seed the session with the first two entities, stream the rest.
		seed := entity.NewGroup(full.Name, full.Schema)
		for _, e := range full.Entities[:2] {
			seed.MustAdd(e.Clone())
		}
		sess, err := NewSession(seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range full.Entities[2:] {
			if _, err := sess.Add(e.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		incr, err := sess.Result()
		if err != nil {
			t.Fatal(err)
		}
		batch, err := DIMEPlus(full, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(partitionIDs(seed, incr.Partitions), partitionIDs(full, batch.Partitions)) {
			t.Fatalf("trial %d: partitions differ\nincremental: %v\nbatch:       %v",
				trial, partitionIDs(seed, incr.Partitions), partitionIDs(full, batch.Partitions))
		}
		for li := range batch.Levels {
			if !reflect.DeepEqual(incr.Levels[li].EntityIDs, batch.Levels[li].EntityIDs) {
				t.Fatalf("trial %d level %d: %v vs %v",
					trial, li, incr.Levels[li].EntityIDs, batch.Levels[li].EntityIDs)
			}
		}
	}
}

// TestSessionPaperExample streams Figure 1 and checks the paper's outcome.
func TestSessionPaperExample(t *testing.T) {
	full := fixtures.Figure1Group()
	opts := paperOptions()
	seed := entity.NewGroup(full.Name, full.Schema)
	for _, e := range full.Entities[:1] {
		seed.MustAdd(e.Clone())
	}
	sess, err := NewSession(seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range full.Entities[1:] {
		if _, err := sess.Add(e.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Final(); !reflect.DeepEqual(got, []string{"e4", "e6"}) {
		t.Fatalf("final = %v", got)
	}
	if sess.Size() != 6 || len(sess.Partitions()) != 3 {
		t.Fatalf("size=%d partitions=%d", sess.Size(), len(sess.Partitions()))
	}
}

// TestSessionRebuildOnShallowNode: adding an entity that maps to a node
// shallower than anything seen forces (and survives) a full rebuild.
func TestSessionRebuildOnShallowNode(t *testing.T) {
	g := fixtures.Figure1Group()
	opts := paperOptions()
	sess, err := NewSession(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	// "Database" is a depth-3 node; all Figure-1 venues sit at depth 4, so
	// the frozen floors assume depth ≥ 4 and this addition must rebuild.
	e, err := entity.NewEntity(fixtures.ScholarSchema, "e7",
		[][]string{{"survey of everything"}, {"Nan Tang"}, {"Database"}})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := sess.Add(e)
	if err != nil {
		t.Fatal(err)
	}
	if !rebuilt {
		t.Fatal("shallow ontology node should force a rebuild")
	}
	incr, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := DIMEPlus(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(incr.Final(), batch.Final()) {
		t.Fatalf("after rebuild: %v vs batch %v", incr.Final(), batch.Final())
	}
}

func TestSessionAddErrors(t *testing.T) {
	g := fixtures.Figure1Group()
	sess, err := NewSession(g, paperOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate ID must fail and leave the session usable.
	dup, _ := entity.NewEntity(fixtures.ScholarSchema, "e1", [][]string{{"t"}, {"a"}, {"SIGMOD"}})
	if _, err := sess.Add(dup); err == nil {
		t.Fatal("duplicate ID should fail")
	}
	if sess.Size() != 6 {
		t.Fatalf("failed add changed size to %d", sess.Size())
	}
	if _, err := sess.Result(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionStreamLargePage sanity-checks the incremental path at a
// realistic page size (and implicitly that Add stays subquadratic enough to
// finish instantly).
func TestSessionStreamLargePage(t *testing.T) {
	full := datagen.Scholar(datagen.ScholarOptions{NumPubs: 150, ErrorRate: 0.08, Seed: 3})
	cfg := presets.ScholarConfig()
	opts := Options{Config: cfg, Rules: presets.ScholarRules(cfg)}
	seed := entity.NewGroup(full.Name, full.Schema)
	for _, e := range full.Entities[:5] {
		seed.MustAdd(e.Clone())
	}
	sess, err := NewSession(seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range full.Entities[5:] {
		if _, err := sess.Add(e.Clone()); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	incr, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := DIMEPlus(full, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(incr.Final(), batch.Final()) {
		t.Fatalf("incremental %v vs batch %v", incr.Final(), batch.Final())
	}
}

// TestSessionResultIsReadOnly: Result only reads the session, so two calls
// with no Add in between return deep-equal Results — the negative-phase
// counters are not folded back into the session's stats.
func TestSessionResultIsReadOnly(t *testing.T) {
	sess, err := NewSession(fixtures.Figure1Group(), paperOptions())
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	second, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("second Result differs:\n first:  %+v\n second: %+v", first.Stats, second.Stats)
	}
}

// TestSessionHonoursDisableTransitivitySkip: the session verifies through the
// same engine as DIMEPlus, so the ablation switch applies to it too — every
// candidate is verified and none is skipped.
func TestSessionHonoursDisableTransitivitySkip(t *testing.T) {
	opts := paperOptions()
	opts.DisableTransitivitySkip = true
	sess, err := NewSession(fixtures.Figure1Group(), opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	opts.IntraWorkers, opts.BenefitSortLimit = 1, 1
	want, err := DIMEPlus(fixtures.Figure1Group(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats {
		t.Fatalf("session stats %+v, DIMEPlus %+v", got.Stats, want.Stats)
	}
	if got.Stats.PositiveVerified != 5 || got.Stats.PositiveSkippedByTransitivity != 0 {
		t.Fatalf("verified %d / skipped %d, want 5 / 0",
			got.Stats.PositiveVerified, got.Stats.PositiveSkippedByTransitivity)
	}
}

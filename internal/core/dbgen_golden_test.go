package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"dime/internal/datagen"
	"dime/internal/presets"
)

// TestDIMEPlusDBGenGolden pins the full DIME+ output on seeded DBGen groups
// whose rules verify eds(Name) >= 0.9 and eds(Name) <= 0.5. Every
// differential check (DIME vs DIME+, 1 vs N workers, Session) evaluates
// predicates through the same rules.Predicate.Eval on both sides, so a
// change to the edit-similarity kernel that flipped a verdict would pass
// them all; these digests catch it. The largest group generates more than
// BenefitSortLimit's default 32,768 candidates, so it covers the streaming
// verification branch as well as the benefit-sorted one; each group runs
// sequentially and with four intra-group workers.
func TestDIMEPlusDBGenGolden(t *testing.T) {
	cases := []struct {
		entities int
		errRate  float64
		seed     int64
		want     string
	}{
		{300, 0.05, 3, "ffc14393febc254803e77e88da050320e8cd44715f3592c7be8e93530e388352"},
		{1000, 0.30, 17, "3aa0bc4db6d5a4658706101b8d6510032c1f7ea471fb6b43578197e4a76ac54d"},
		{2500, 0.10, 29, "eb4771060af02a9b1b3622eb5d97e172d9fd6bb6c196bd6b12933b55e7d0b915"},
	}
	cfg := presets.DBGenConfig()
	rs := presets.DBGenRules(cfg)
	for _, c := range cases {
		t.Run(fmt.Sprintf("n%d-seed%d", c.entities, c.seed), func(t *testing.T) {
			g := datagen.DBGen(datagen.DBGenOptions{NumEntities: c.entities, ErrorRate: c.errRate, Seed: c.seed})
			for _, workers := range []int{1, 4} {
				res, err := DIMEPlus(g, Options{Config: cfg, Rules: rs, IntraWorkers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got := resultDigest(res); got != c.want {
					t.Errorf("IntraWorkers %d: digest = %s, want %s (stats %+v)", workers, got, c.want, res.Stats)
				}
			}
		})
	}
}

// resultDigest hashes a canonical rendering of everything a Result
// reports: partitions, pivot, levels, witnesses (by ascending partition)
// and Stats.
func resultDigest(r *Result) string {
	h := sha256.New()
	for _, p := range r.Partitions {
		fmt.Fprintln(h, "partition", p)
	}
	fmt.Fprintln(h, "pivot", r.Pivot)
	for _, l := range r.Levels {
		fmt.Fprintln(h, "level", l.RuleName, l.PartitionIndexes, l.EntityIDs)
	}
	marked := make([]int, 0, len(r.Witnesses))
	for pi := range r.Witnesses {
		marked = append(marked, pi)
	}
	sort.Ints(marked)
	for _, pi := range marked {
		w := r.Witnesses[pi]
		fmt.Fprintln(h, "witness", pi, w.Rule, w.EntityID, w.PivotID)
	}
	fmt.Fprintf(h, "stats %+v\n", r.Stats)
	return hex.EncodeToString(h.Sum(nil))
}

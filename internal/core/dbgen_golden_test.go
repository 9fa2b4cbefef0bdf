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
		want     digests
	}{
		{300, 0.05, 3, digests{
			"fc6133027c11e8c2372a2044e63e3fe3f52a28db00ed8533fbe640f72220268e",
			"d43eb44d2d629ed5defb9930b13c09a5d85a91aff76b742efa10b5ce066d2e2f",
		}},
		{1000, 0.30, 17, digests{
			"fbda15eeb6246359ce481d8e5fd562c69cf4c0fbca48a30566ea5e4d30ebb36b",
			"fc43665866c25724e95df5138dc9b52cb985835ccfce464b3390f831ab7c5993",
		}},
		{2500, 0.10, 29, digests{
			"3278d0c14cc27be3f85891526e08f4562cb20bd5109ac61a3d460ede4e07b406",
			"acb0716c7ae63b821a5478fa8f51a4013089055e39abeee18682651527c70586",
		}},
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
				c.want.check(t, fmt.Sprintf("IntraWorkers %d", workers), res)
			}
		})
	}
}

// digests pins a Result by two SHA-256 digests: Results covers what DIME+
// reports (partitions, pivot, levels, witnesses), Stats its counters. A
// change to candidate generation may move the counters but never the
// results, so the two are pinned apart.
type digests struct {
	Results, Stats string
}

func digestsOf(r *Result) digests {
	return digests{resultsDigest(r), statsDigest(r)}
}

// check reports every digest of r that differs from d.
func (d digests) check(t *testing.T, label string, r *Result) {
	t.Helper()
	got := digestsOf(r)
	if got.Results != d.Results {
		t.Errorf("%s: results digest = %s, want %s", label, got.Results, d.Results)
	}
	if got.Stats != d.Stats {
		t.Errorf("%s: stats digest = %s, want %s (stats %+v)", label, got.Stats, d.Stats, r.Stats)
	}
}

// resultsDigest hashes a canonical rendering of the results a Result
// reports: partitions, pivot, levels and witnesses (by ascending partition).
func resultsDigest(r *Result) string {
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
	return hex.EncodeToString(h.Sum(nil))
}

// statsDigest hashes a Result's Stats.
func statsDigest(r *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "stats %+v\n", r.Stats)
	return hex.EncodeToString(h.Sum(nil))
}

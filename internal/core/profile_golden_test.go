package core

import (
	"math"
	"testing"

	"dime/internal/datagen"
	"dime/internal/entity"
	"dime/internal/presets"
	"dime/internal/rules"
)

// amazonProfile builds the Amazon configuration and rules exactly as the
// served "amazon" profile does: the oracle description tree and mapper of
// a one-product-per-category corpus.
func amazonProfile() (*rules.Config, rules.RuleSet) {
	c := datagen.Amazon(datagen.AmazonOptions{ProductsPerCategory: 1, Seed: 1})
	cfg := presets.AmazonConfig(c.TrueTree, c.TrueMapper())
	return cfg, presets.AmazonRules(cfg)
}

// TestDIMEPlusProfileGolden pins the full DIME+ output on seeded Scholar
// pages and Amazon categories under the paper's rule sets (the served
// "scholar" and "amazon" profiles). The set-overlap, Jaccard and ontology
// signature schemes all feed these results; every differential check runs
// the same signature code on both of its sides, so only digests like these
// catch a signature change that moves candidates, benefit order or Stats.
// Each group runs sequentially and with four intra-group workers.
func TestDIMEPlusProfileGolden(t *testing.T) {
	for _, c := range profileCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				res, err := DIMEPlus(c.g, Options{Config: c.cfg, Rules: c.rs, IntraWorkers: workers})
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

// profileCase is one group of TestDIMEPlusProfileGolden with its rules and
// result digest.
type profileCase struct {
	name string
	g    *entity.Group
	cfg  *rules.Config
	rs   rules.RuleSet
	want string
}

func profileCases() []profileCase {
	scholarCfg := presets.ScholarConfig()
	scholarRules := presets.ScholarRules(scholarCfg)
	amazonCfg, amazonRules := amazonProfile()
	pages := datagen.ScholarPages(3, 220, 0.1, 41)
	cats := datagen.Amazon(datagen.AmazonOptions{
		ProductsPerCategory: 150, ErrorRate: 0.1, Seed: 43, Categories: []string{"Router", "Perfume"},
	}).Groups
	return []profileCase{
		{"scholar-0", pages[0], scholarCfg, scholarRules, "b4ba115bb52de7332109c97461d9539be3f940e8e03d63eb72c27e223f699e2f"},
		{"scholar-1", pages[1], scholarCfg, scholarRules, "df4b9841efd24348699b55245ecb43c5f2143183dfb9d26cf220f61827e18a9c"},
		{"scholar-2", pages[2], scholarCfg, scholarRules, "58303b3840d5ba4d842ab2499ccf7d4513f97f3781853387d2293b9624e0aab6"},
		{"amazon-router", cats[0], amazonCfg, amazonRules, "8a10afd2a6b740eccdbff5c4f185bed74e36869de5f23f7b20a09eea7eb5ce02"},
		{"amazon-perfume", cats[1], amazonCfg, amazonRules, "5997282a0818300002fc37d93eacf30ee8d81b6da6229375f18d1abd13bf1b5a"},
	}
}

// TestBenefitSortLimitUnbounded: a BenefitSortLimit that never streams is
// a valid setting. A group whose candidates fit the default limit gives
// the default's result exactly; a larger one (scholar-1) is sorted instead
// of streamed, which changes only which pairs transitivity skips.
func TestBenefitSortLimitUnbounded(t *testing.T) {
	streamed := 0
	for _, c := range profileCases() {
		t.Run(c.name, func(t *testing.T) {
			opts := Options{Config: c.cfg, Rules: c.rs, IntraWorkers: 1}
			def, err := DIMEPlus(c.g, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.BenefitSortLimit = math.MaxInt
			all, err := DIMEPlus(c.g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if def.Stats.PositivePairsConsidered > defaultBenefitSortLimit {
				streamed++
				all.Stats.PositiveVerified = def.Stats.PositiveVerified
				all.Stats.PositiveSkippedByTransitivity = def.Stats.PositiveSkippedByTransitivity
			}
			if got, want := resultDigest(all), resultDigest(def); got != want {
				t.Errorf("unbounded limit: digest = %s, want %s (stats %+v, default %+v)", got, want, all.Stats, def.Stats)
			}
		})
	}
	if streamed == 0 {
		t.Error("no case exceeds the default limit, so the sorted-instead-of-streamed path is untested")
	}
}

// TestSessionEntityByEntityGolden pins a Session fed one entity at a time —
// how the HTTP service grows a corpus — and reads its Result after the last
// Add, Stats included. A session created over an empty group ranks no
// token, so every token and q-gram it signs arrives unseen; the seeded
// case starts from a group's first entities, so ranked tokens and tokens
// first seen by Add meet in one signature order.
func TestSessionEntityByEntityGolden(t *testing.T) {
	scholarCfg := presets.ScholarConfig()
	amazonCfg, amazonRules := amazonProfile()
	dbgenCfg := presets.DBGenConfig()
	cases := []struct {
		name string
		g    *entity.Group
		seed int // entities in the group the session is created over
		cfg  *rules.Config
		rs   rules.RuleSet
		want string
	}{
		{"scholar", datagen.Scholar(datagen.ScholarOptions{NumPubs: 150, ErrorRate: 0.1, Seed: 47}), 0,
			scholarCfg, presets.ScholarRules(scholarCfg), "29636e63b46212c76aafe3582b07c393257bee78e8de1e2a3fbdbcd36cc92914"},
		{"amazon", datagen.Amazon(datagen.AmazonOptions{
			ProductsPerCategory: 90, ErrorRate: 0.1, Seed: 53, Categories: []string{"Kettle"},
		}).Groups[0], 0, amazonCfg, amazonRules, "9507bcf74bb2a797cd9982c5674e456a51f5a9edc2ff3fa49fc9b04c11201410"},
		{"dbgen", datagen.DBGen(datagen.DBGenOptions{NumEntities: 300, ErrorRate: 0.1, Seed: 59}), 0,
			dbgenCfg, presets.DBGenRules(dbgenCfg), "2eecf1cbce03bb80481cd67e4616b6c2325022e9c58ab873f51434f635c36e5a"},
		{"scholar-seeded", datagen.Scholar(datagen.ScholarOptions{NumPubs: 150, ErrorRate: 0.1, Seed: 61}), 40,
			scholarCfg, presets.ScholarRules(scholarCfg), "c24954c4909ba236af1382fb4df837e18d37dcb7ec578e28455badb58d09b465"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			start := entity.NewGroup(c.g.Name, c.g.Schema)
			for _, e := range c.g.Entities[:c.seed] {
				start.MustAdd(e.Clone())
			}
			sess, err := NewSession(start, Options{Config: c.cfg, Rules: c.rs, IntraWorkers: 1})
			if err != nil {
				t.Fatal(err)
			}
			rebuilds := 0
			for _, e := range c.g.Entities[c.seed:] {
				rebuilt, err := sess.Add(e.Clone())
				if err != nil {
					t.Fatal(err)
				}
				if rebuilt {
					rebuilds++
				}
			}
			res, err := sess.Result()
			if err != nil {
				t.Fatal(err)
			}
			if got := resultDigest(res); got != c.want {
				t.Errorf("digest = %s, want %s (%d rebuilds, stats %+v)", got, c.want, rebuilds, res.Stats)
			}
		})
	}
}

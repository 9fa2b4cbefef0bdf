package core

import (
	"fmt"
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
				c.want.check(t, fmt.Sprintf("IntraWorkers %d", workers), res)
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
	want digests
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
		{"scholar-0", pages[0], scholarCfg, scholarRules, digests{
			"c0db5f7fbe4259948ca1df4ccbfb6d70fa1087183f828bef856f43bc669eb251",
			"5bdc1736c5add52d819e7f3385fd0993cf4a02303de3d13ad28011c022fc7fba",
		}},
		{"scholar-1", pages[1], scholarCfg, scholarRules, digests{
			"480fd77ec2e1adedbba0faae8d08277482ba276b9a565d33c7b7f9f75ebd40d7",
			"db36e40198c225aaa871a7832fbf0da2ae48c1d59cb24a4ef22a8fd8662efe96",
		}},
		{"scholar-2", pages[2], scholarCfg, scholarRules, digests{
			"a950a971a10d4427b470358186984af87bf96382f2627b6255960e9898bcaad1",
			"fe65d37c248ddedde26f8bf3a607dd0ae3527433cf1fec80139197af0dc08631",
		}},
		{"amazon-router", cats[0], amazonCfg, amazonRules, digests{
			"31b627bda3c38a69f6ded134acca4e0b58b8fcae0f42fc84480ba00e35452675",
			"ae76663fd9f3e3cf7c2a7bfbc3698b445d07ffd68035d36f3f3ccee743c91800",
		}},
		{"amazon-perfume", cats[1], amazonCfg, amazonRules, digests{
			"dc992a53d7f0459a0f44aa8fd42d32830e19323f4a36f88f34f26e2955074b64",
			"851b6d54c7df45622945ab928ec8f99c306f584def24de7fe423261544832536",
		}},
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
			if got, want := digestsOf(all), digestsOf(def); got != want {
				t.Errorf("unbounded limit: digests = %+v, want %+v (stats %+v, default %+v)", got, want, all.Stats, def.Stats)
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
		want digests
	}{
		{"scholar", datagen.Scholar(datagen.ScholarOptions{NumPubs: 150, ErrorRate: 0.1, Seed: 47}), 0,
			scholarCfg, presets.ScholarRules(scholarCfg), digests{
				"fc3c95dfdb036196719935569057bf9dd3c69d9d5f8ac55d2fad1f3731830c73",
				"adb25f4f7063089b7f6e0fa760f12382cff757f09f96771529ef930292b5531c",
			}},
		{"amazon", datagen.Amazon(datagen.AmazonOptions{
			ProductsPerCategory: 90, ErrorRate: 0.1, Seed: 53, Categories: []string{"Kettle"},
		}).Groups[0], 0, amazonCfg, amazonRules, digests{
			"6c2740339e6339359da261393c5032eb21887c34fa9a5cb3e7451584e64a0750",
			"10c36043d325cc5b70bd66956cfd3c0eba97a225ef73b8edef0c84138478a62e",
		}},
		{"dbgen", datagen.DBGen(datagen.DBGenOptions{NumEntities: 300, ErrorRate: 0.1, Seed: 59}), 0,
			dbgenCfg, presets.DBGenRules(dbgenCfg), digests{
				"4b715731cbecd4c6e962e0a5688f15e03bd2162876f9a2dc77c82ed474dc6cc2",
				"38e579bc19e7e78c84adba4b199b2e1a55aff9925b1f9a6892d434c48099616f",
			}},
		{"scholar-seeded", datagen.Scholar(datagen.ScholarOptions{NumPubs: 150, ErrorRate: 0.1, Seed: 61}), 40,
			scholarCfg, presets.ScholarRules(scholarCfg), digests{
				"d57864e58bf170cff93dbdc1f1f7402c79a88ee8660026d0f5bd1df1b4ce2e64",
				"30d71c20c18e6299af5b342d87b0c26e5b607fb52c545a96739a9adb39d34e41",
			}},
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
			c.want.check(t, fmt.Sprintf("%d rebuilds", rebuilds), res)
		})
	}
}

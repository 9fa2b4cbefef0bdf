package core

import (
	"fmt"
	"reflect"
	"testing"

	"dime/internal/entity"
	"dime/internal/rules"
)

// TestPositiveFilterKeepsToleranceTies: a positive predicate accepts a
// similarity up to sim.Epsilon below its threshold, so the signature filter
// must keep every such pair. Each group holds one pair whose similarity is
// a hair under θ yet passes Eval, and one unrelated record; DIME, DIME+ and
// an entity-by-entity Session must all merge the pair.
func TestPositiveFilterKeepsToleranceTies(t *testing.T) {
	schema := entity.MustSchema("Name", "Tags")
	cfg := rules.NewConfig(schema)
	cases := []struct {
		name, rule string
		values     [][][]string // per entity: Name values, Tags values
	}{
		// jac = 2/4 = 0.5.
		{"jac", "jac(Tags) >= 0.5000000005", [][][]string{
			{{"x"}, {"a", "b", "c", "d"}}, {{"y"}, {"a", "b"}}, {{"z"}, {"q"}},
		}},
		// eds = 1 − 1/7 = 6/7.
		{"eds", "eds(Name) >= 0.857142857643", [][][]string{
			{{"dffbab"}, {"t"}}, {{"dffbaeb"}, {"t"}}, {{"zzzzzz"}, {"t"}},
		}},
	}
	want := [][]int{{0, 1}, {2}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := entity.NewGroup(c.name, schema)
			for i, v := range c.values {
				g.MustAdd(entity.MustNewEntity(schema, fmt.Sprintf("e%d", i), v))
			}
			opts := Options{Config: cfg, Rules: rules.RuleSet{
				Positive: []rules.Rule{rules.MustParse(cfg, "p", rules.Positive, c.rule)},
				Negative: []rules.Rule{rules.MustParse(cfg, "n", rules.Negative, "ov(Tags) = 0")},
			}}
			dime, err := DIME(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dime.Partitions, want) {
				t.Fatalf("DIME partitions = %v, want %v", dime.Partitions, want)
			}
			for _, workers := range []int{1, 4} {
				opts.IntraWorkers = workers
				plus, err := DIMEPlus(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(plus.Partitions, want) {
					t.Errorf("DIME+ (%d workers) partitions = %v, want %v", workers, plus.Partitions, want)
				}
			}
			sess, err := NewSession(entity.NewGroup(c.name, schema), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range g.Entities {
				if _, err := sess.Add(e.Clone()); err != nil {
					t.Fatal(err)
				}
			}
			if got := sess.Partitions(); !reflect.DeepEqual(got, want) {
				t.Errorf("Session partitions = %v, want %v", got, want)
			}
		})
	}
}

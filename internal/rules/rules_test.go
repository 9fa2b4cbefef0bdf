package rules

import (
	"math"
	"strings"
	"testing"

	"dime/internal/entity"
	"dime/internal/ontology"
	"dime/internal/sim"
)

var testSchema = entity.MustSchema("Title", "Authors", "Venue")

func testConfig() *Config {
	return NewConfig(testSchema).
		WithTokenMode("Title", WordsMode).
		WithTree("Venue", ontology.VenueTree())
}

func mustRecord(t *testing.T, cfg *Config, id, title string, authors []string, venue string) *Record {
	t.Helper()
	e, err := entity.NewEntity(testSchema, id, [][]string{{title}, authors, {venue}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := cfg.NewRecord(e)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRecordTokenModes(t *testing.T) {
	cfg := testConfig()
	r := mustRecord(t, cfg, "e", "A Data Cleaning System", []string{"Nan Tang", "Xu Chu"}, "SIGMOD")
	// Title uses word tokens.
	wantTitle := []string{"a", "data", "cleaning", "system"}
	if len(r.Tokens[0]) != len(wantTitle) {
		t.Fatalf("title tokens = %v", r.Tokens[0])
	}
	// Authors use element tokens: whole normalized names.
	if len(r.Tokens[1]) != 2 || r.Tokens[1][0] != "nan tang" {
		t.Fatalf("author tokens = %v", r.Tokens[1])
	}
	// Venue maps to the ontology node.
	if r.Nodes[2] == nil || r.Nodes[2].Label != "SIGMOD" {
		t.Fatalf("venue node = %v", r.Nodes[2])
	}
	// Title has no tree: nil node.
	if r.Nodes[0] != nil {
		t.Fatal("title should have no node")
	}
}

func TestPredicateOverlapAuthors(t *testing.T) {
	cfg := testConfig()
	a := mustRecord(t, cfg, "a", "t", []string{"Nan Tang", "Xu Chu"}, "SIGMOD")
	b := mustRecord(t, cfg, "b", "t", []string{"Nan Tang", "Ihab F. Ilyas"}, "VLDB")
	p := Predicate{Attr: 1, AttrName: "Authors", Fn: Overlap, Op: GE, Threshold: 1}
	if !p.Eval(a, b) {
		t.Fatal("one common author should satisfy ov >= 1")
	}
	p.Threshold = 2
	if p.Eval(a, b) {
		t.Fatal("ov >= 2 should fail with a single common author")
	}
	// A single-element author list must count as ONE token, not word tokens.
	c := mustRecord(t, cfg, "c", "t", []string{"Nan Tang"}, "ICDE")
	p1 := Predicate{Attr: 1, Fn: Overlap, Op: GE, Threshold: 1}
	if got := p1.Similarity(a, c); !sim.Eq(got, 1) {
		t.Fatalf("single-author overlap = %v, want 1", got)
	}
}

func TestPredicateOntology(t *testing.T) {
	cfg := testConfig()
	a := mustRecord(t, cfg, "a", "t", []string{"X"}, "SIGMOD")
	b := mustRecord(t, cfg, "b", "t", []string{"Y"}, "VLDB")
	c := mustRecord(t, cfg, "c", "t", []string{"Z"}, "RSC Advances")
	p := Predicate{Attr: 2, AttrName: "Venue", Fn: Ontology, Op: GE, Threshold: 0.75, Tree: cfg.Tree("Venue")}
	if !p.Eval(a, b) {
		t.Fatal("SIGMOD/VLDB should satisfy on >= 0.75")
	}
	if p.Eval(a, c) {
		t.Fatal("SIGMOD/RSC should not satisfy on >= 0.75")
	}
	neg := Predicate{Attr: 2, Fn: Ontology, Op: LE, Threshold: 0.25, Tree: cfg.Tree("Venue")}
	if !neg.Eval(a, c) {
		t.Fatal("SIGMOD/RSC should satisfy on <= 0.25")
	}
	if neg.Eval(a, b) {
		t.Fatal("SIGMOD/VLDB should not satisfy on <= 0.25")
	}
}

func TestPredicateEditDistance(t *testing.T) {
	cfg := testConfig()
	a := mustRecord(t, cfg, "a", "katara", nil, "SIGMOD")
	b := mustRecord(t, cfg, "b", "kataras", nil, "SIGMOD")
	p := Predicate{Attr: 0, Fn: EditDist, Op: LE, Threshold: 1}
	if !p.Eval(a, b) {
		t.Fatal("one edit apart should satisfy ed <= 1")
	}
	pGE := Predicate{Attr: 0, Fn: EditDist, Op: GE, Threshold: 3}
	if pGE.Eval(a, b) {
		t.Fatal("one edit apart should not satisfy ed >= 3")
	}
	c := mustRecord(t, cfg, "c", "completely different", nil, "SIGMOD")
	if !pGE.Eval(a, c) {
		t.Fatal("distant strings should satisfy ed >= 3")
	}
}

func TestPredicateJaccardTitle(t *testing.T) {
	cfg := testConfig()
	a := mustRecord(t, cfg, "a", "data cleaning system", nil, "SIGMOD")
	b := mustRecord(t, cfg, "b", "data cleaning framework", nil, "SIGMOD")
	p := Predicate{Attr: 0, Fn: Jaccard, Op: GE, Threshold: 0.5}
	if got := p.Similarity(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("jaccard = %v", got)
	}
	if !p.Eval(a, b) {
		t.Fatal("jac >= 0.5 should hold")
	}
}

func TestRuleConjunction(t *testing.T) {
	cfg := testConfig()
	a := mustRecord(t, cfg, "a", "t", []string{"Nan Tang"}, "SIGMOD")
	b := mustRecord(t, cfg, "b", "t", []string{"Nan Tang"}, "VLDB")
	c := mustRecord(t, cfg, "c", "t", []string{"Nan Tang"}, "RSC Advances")
	r := MustParse(cfg, "phi+2", Positive, "ov(Authors) >= 1 && on(Venue) >= 0.75")
	if !r.Eval(a, b) {
		t.Fatal("both predicates hold")
	}
	if r.Eval(a, c) {
		t.Fatal("venue predicate fails; conjunction must fail")
	}
	if (Rule{}).Eval(a, b) {
		t.Fatal("empty rule must evaluate to false")
	}
}

func TestParseRoundTrip(t *testing.T) {
	cfg := testConfig()
	r := MustParse(cfg, "phi-2", Negative, "ov(Authors) <= 1 && on(Venue) <= 0.25")
	s := r.String()
	if !strings.Contains(s, "ov(Authors) <= 1") || !strings.Contains(s, "on(Venue) <= 0.25") {
		t.Fatalf("String = %q", s)
	}
	if len(r.Predicates) != 2 {
		t.Fatalf("predicates = %d", len(r.Predicates))
	}
	if r.Predicates[1].Tree == nil {
		t.Fatal("ontology predicate should carry the tree")
	}
}

func TestParseEqualsZero(t *testing.T) {
	cfg := testConfig()
	r := MustParse(cfg, "phi-1", Negative, "ov(Authors) = 0")
	if r.Predicates[0].Op != LE || r.Predicates[0].Threshold != 0 {
		t.Fatalf("= 0 should parse as <= 0: %+v", r.Predicates[0])
	}
}

func TestParseErrors(t *testing.T) {
	cfg := testConfig()
	bad := []string{
		"ov(Authors >= 1",        // missing paren
		"nosuch(Authors) >= 1",   // unknown fn
		"ov(Missing) >= 1",       // unknown attribute
		"ov(Authors) > 1",        // unsupported op
		"ov(Authors) >= notanum", // bad threshold
		"on(Title) >= 0.5",       // no tree for Title
		"ov(Authors) = 1",        // '=' only with 0
		"ov(Authors) >= -1",      // negative threshold
		"",                       // empty
		"ov(Authors) >= 1 && xx", // bad second predicate
	}
	for _, dsl := range bad {
		if _, err := Parse(cfg, "r", Negative, dsl); err == nil {
			t.Errorf("Parse(%q) should fail", dsl)
		}
	}
}

func TestRuleSetValidate(t *testing.T) {
	cfg := testConfig()
	rs := RuleSet{
		Positive: []Rule{MustParse(cfg, "p", Positive, "ov(Authors) >= 1")},
		Negative: []Rule{MustParse(cfg, "n", Negative, "ov(Authors) = 0")},
	}
	if err := rs.Validate(testSchema); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Kind mismatch must fail.
	rsBad := RuleSet{Positive: []Rule{MustParse(cfg, "n", Negative, "ov(Authors) = 0")}}
	if err := rsBad.Validate(testSchema); err == nil {
		t.Fatal("kind mismatch should fail validation")
	}
}

// TestEditDistanceThresholdMustBeInteger pins that ed thresholds are
// integers. Eval bounds the distance by the threshold's integer part, so
// ed(Title) >= 2.5 would hold for a pair at distance 2 while its Similarity,
// 2, is below 2.5.
func TestEditDistanceThresholdMustBeInteger(t *testing.T) {
	cfg := testConfig()
	for _, dsl := range []string{"ed(Title) >= 2.5", "ed(Title) <= 0.5", "ed(Title) <= 1e-3"} {
		if _, err := Parse(cfg, "r", Positive, dsl); err == nil {
			t.Errorf("Parse(%q) accepted a fractional edit-distance threshold", dsl)
		}
	}
	for _, dsl := range []string{"ed(Title) >= 2", "ed(Title) <= 0", "eds(Title) >= 0.5"} {
		if _, err := Parse(cfg, "r", Positive, dsl); err != nil {
			t.Errorf("Parse(%q): %v", dsl, err)
		}
	}
	p := Predicate{Attr: 0, AttrName: "Title", Fn: EditDist, Op: GE, Threshold: 2.5}
	rs := RuleSet{Positive: []Rule{{Name: "r", Kind: Positive, Predicates: []Predicate{p}}}}
	if err := rs.Validate(testSchema); err == nil {
		t.Error("Validate accepted ed(Title) >= 2.5")
	}
}

func TestPredicateCostModel(t *testing.T) {
	cfg := testConfig()
	a := mustRecord(t, cfg, "a", "short", []string{"X", "Y"}, "SIGMOD")
	b := mustRecord(t, cfg, "b", "longer title here", []string{"X"}, "VLDB")
	set := Predicate{Attr: 1, Fn: Overlap, Op: GE, Threshold: 1}
	if got := set.Cost(a, b); !sim.Eq(got, 3) {
		t.Fatalf("set cost = %v, want |a|+|b| = 3", got)
	}
	ont := Predicate{Attr: 2, Fn: Ontology, Op: GE, Threshold: 0.75, Tree: cfg.Tree("Venue")}
	if got := ont.Cost(a, b); !sim.Eq(got, 8) {
		t.Fatalf("ontology cost = %v, want 4+4", got)
	}
	ed := Predicate{Attr: 0, Fn: EditDist, Op: LE, Threshold: 2}
	if got := ed.Cost(a, b); !sim.Eq(got, 2*float64(len("short"))) {
		t.Fatalf("edit cost = %v", got)
	}
}

func TestNewRecordsSetsIndexes(t *testing.T) {
	cfg := testConfig()
	g := entity.NewGroup("g", testSchema)
	for _, id := range []string{"a", "b", "c"} {
		e, _ := entity.NewEntity(testSchema, id, [][]string{{"t"}, {"x"}, {"SIGMOD"}})
		g.MustAdd(e)
	}
	recs, err := cfg.NewRecords(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if r.Index != i {
			t.Fatalf("record %d has index %d", i, r.Index)
		}
	}
	// Schema mismatch must fail.
	other := entity.NewGroup("o", entity.MustSchema("X"))
	if _, err := cfg.NewRecords(other); err == nil {
		t.Fatal("schema mismatch should fail")
	}
}

func TestCustomMapper(t *testing.T) {
	tree := ontology.NewTree("Topics")
	sports := tree.AddPath("Sports")
	cfg := NewConfig(testSchema).
		WithTree("Title", tree).
		WithMapper("Title", func(values []string) *ontology.Node { return sports })
	r := mustRecord(t, cfg, "a", "anything at all", nil, "x")
	if r.Nodes[0] != sports {
		t.Fatal("custom mapper should drive node mapping")
	}
}

func TestFuncStrings(t *testing.T) {
	names := map[Func]string{
		Overlap: "ov", Jaccard: "jac", Dice: "dice", Cosine: "cos",
		EditSim: "eds", EditDist: "ed", Ontology: "on",
	}
	for fn, want := range names {
		if fn.String() != want {
			t.Errorf("Func %d String = %q, want %q", fn, fn.String(), want)
		}
	}
	if GE.String() != ">=" || LE.String() != "<=" {
		t.Fatal("op strings")
	}
	if Positive.String() != "positive" || Negative.String() != "negative" {
		t.Fatal("kind strings")
	}
}

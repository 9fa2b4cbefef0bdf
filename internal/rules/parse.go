package rules

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse builds a Rule from its DSL form. The grammar is a conjunction of
// predicates joined by "&&":
//
//	rule      := predicate { "&&" predicate }
//	predicate := fn "(" attribute ")" op number
//	fn        := "ov" | "jac" | "dice" | "cos" | "eds" | "ed" | "on"
//	op        := ">=" | "<=" | "="
//
// "=" is sugar for a two-sided equality and is accepted only with 0 on
// overlap predicates (the paper's f_ov(A) = 0 form), where it means "<= 0".
// Edit-distance (ed) thresholds count edits and must be integers.
// Attribute names may contain any characters except ')'. Ontology predicates
// require a tree registered for the attribute in cfg.
func Parse(cfg *Config, name string, kind Kind, dsl string) (Rule, error) {
	r := Rule{Name: name, Kind: kind}
	parts := strings.Split(dsl, "&&")
	for _, part := range parts {
		p, err := parsePredicate(cfg, strings.TrimSpace(part))
		if err != nil {
			return Rule{}, fmt.Errorf("rules: parsing %q: %w", dsl, err)
		}
		r.Predicates = append(r.Predicates, p)
	}
	if err := (RuleSet{}).validateOne(r, cfg); err != nil {
		return Rule{}, err
	}
	return r, nil
}

// MustParse is Parse that panics on error, for preset rule tables.
func MustParse(cfg *Config, name string, kind Kind, dsl string) Rule {
	r, err := Parse(cfg, name, kind, dsl)
	if err != nil {
		panic(err)
	}
	return r
}

func parsePredicate(cfg *Config, s string) (Predicate, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 {
		return Predicate{}, fmt.Errorf("predicate %q: missing '('", s)
	}
	closeIdx := strings.IndexByte(s, ')')
	if closeIdx < open {
		return Predicate{}, fmt.Errorf("predicate %q: missing ')'", s)
	}
	fnName := strings.TrimSpace(s[:open])
	attr := strings.TrimSpace(s[open+1 : closeIdx])
	rest := strings.TrimSpace(s[closeIdx+1:])

	var fn Func
	switch fnName {
	case "ov":
		fn = Overlap
	case "jac":
		fn = Jaccard
	case "dice":
		fn = Dice
	case "cos":
		fn = Cosine
	case "eds":
		fn = EditSim
	case "ed":
		fn = EditDist
	case "on":
		fn = Ontology
	default:
		return Predicate{}, fmt.Errorf("predicate %q: unknown function %q", s, fnName)
	}

	var op Op
	var numStr string
	switch {
	case strings.HasPrefix(rest, ">="):
		op, numStr = GE, rest[2:]
	case strings.HasPrefix(rest, "<="):
		op, numStr = LE, rest[2:]
	case strings.HasPrefix(rest, "="):
		op, numStr = LE, rest[1:]
		if strings.TrimSpace(numStr) != "0" {
			return Predicate{}, fmt.Errorf("predicate %q: '=' only supported as '= 0'", s)
		}
	default:
		return Predicate{}, fmt.Errorf("predicate %q: expected >=, <= or = after ')'", s)
	}
	threshold, err := strconv.ParseFloat(strings.TrimSpace(numStr), 64)
	if err != nil {
		return Predicate{}, fmt.Errorf("predicate %q: bad threshold: %v", s, err)
	}

	if cfg.Schema == nil {
		return Predicate{}, fmt.Errorf("predicate %q: config has no schema", s)
	}
	idx, ok := cfg.Schema.Index(attr)
	if !ok {
		return Predicate{}, fmt.Errorf("predicate %q: unknown attribute %q", s, attr)
	}
	p := Predicate{Attr: idx, AttrName: attr, Fn: fn, Op: op, Threshold: threshold}
	if fn == Ontology {
		p.Tree = cfg.Tree(attr)
		if p.Tree == nil {
			return Predicate{}, fmt.Errorf("predicate %q: no ontology tree registered for %q", s, attr)
		}
	}
	return p, nil
}

// validateOne reuses RuleSet.Validate's per-rule checks for a single rule.
func (RuleSet) validateOne(r Rule, cfg *Config) error {
	rs := RuleSet{}
	if r.Kind == Positive {
		rs.Positive = []Rule{r}
	} else {
		rs.Negative = []Rule{r}
	}
	return rs.Validate(cfg.Schema)
}

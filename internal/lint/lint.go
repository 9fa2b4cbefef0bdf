// Package lint is a stdlib-only static-analysis framework (go/parser +
// go/ast + go/types, no x/tools) that enforces DIME's code-level correctness
// invariants: deterministic result emission, epsilon-safe float threshold
// comparisons, no silently dropped errors from this module's own functions,
// and panic-free library paths. Lock-by-value copies are left to go vet's
// copylocks check.
//
// The framework walks every package in the module (see Load), runs each
// Analyzer over the type-checked syntax, and reports file:line diagnostics.
// On top of the per-package passes, a module-wide static call graph (see
// BuildCallGraph) powers three interprocedural analyzers: detersafe proves
// the result-producing entry points cannot transitively reach
// nondeterminism sources, panicprop lifts the panic-in-library rule to
// call-graph reachability from exported API, and resultpkgs derives the
// result-producing package list and fails when DefaultResultPackages is
// stale.
//
// A finding can be suppressed with a comment on the same line or the line
// directly above it:
//
//	//lint:ignore <analyzer|all> <reason>
//
// The same directive inside a single-line /* */ comment works too. The
// reason is mandatory; an ignore directive without one is itself a
// diagnostic. Accepted findings that cannot or should not be fixed in-source
// can instead be recorded in a baseline file (see Baseline), which
// cmd/dimelint consumes so CI fails only on new findings.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned at a file:line:col.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the analyzer that produced it.
	Analyzer string
	// Message describes the violation and the expected fix.
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one lint pass. Run inspects the package via the Pass and
// reports findings through Pass.Reportf.
type Analyzer interface {
	// Name is the short identifier used in diagnostics and ignore directives.
	Name() string
	// Doc is a one-line description for -list output.
	Doc() string
	// Run analyzes one package. Interprocedural analyzers implement
	// ModuleAnalyzer instead and leave Run a no-op.
	Run(pass *Pass)
}

// ModuleAnalyzer is an Analyzer that runs once over the whole loaded
// package set with the module call graph, instead of package by package.
type ModuleAnalyzer interface {
	Analyzer
	// RunModule analyzes the module via the ModulePass.
	RunModule(mp *ModulePass)
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	// Fset translates token positions.
	Fset *token.FileSet
	// Pkg is the package under analysis.
	Pkg *Package
	// Info holds the package's type-check results (possibly partial if the
	// package had type errors).
	Info *types.Info

	analyzer string
	sink     *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.sink = append(*p.sink, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InModule reports whether obj is declared in this module (as opposed to the
// standard library or the universe scope).
func (p *Pass) InModule(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == p.Pkg.Module || strings.HasPrefix(path, p.Pkg.Module+"/")
}

// IsTestFile reports whether the file holding pos is a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// ModulePass carries the whole loaded package set and its call graph to a
// ModuleAnalyzer. All packages share one FileSet (as Load guarantees).
type ModulePass struct {
	// Fset translates token positions for every loaded package.
	Fset *token.FileSet
	// Pkgs holds the loaded lint units, sorted by path.
	Pkgs []*Package
	// Module is the module path.
	Module string
	// Graph is the module call graph over Pkgs.
	Graph *CallGraph

	ignores   ignoreSet
	analyzer  string
	sink      *[]Diagnostic
	lockFacts *LockFacts
}

// Reportf records a finding at pos.
func (mp *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*mp.sink = append(*mp.sink, Diagnostic{
		Pos:      mp.Fset.Position(pos),
		Analyzer: mp.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// SuppressedFor reports whether a //lint:ignore directive for the named
// analyzer (or "all") covers pos. Interprocedural analyzers use it to honor
// a per-package suppression at a fact site: a mapiter-determinism ignore
// asserts the iteration is in fact order-safe, so detersafe must not taint
// paths through it.
func (mp *ModulePass) SuppressedFor(pos token.Pos, analyzer string) bool {
	return mp.ignores.suppresses(Diagnostic{Pos: mp.Fset.Position(pos), Analyzer: analyzer})
}

// Run executes the analyzers over the packages, applies //lint:ignore
// suppression, and returns the surviving diagnostics sorted by position.
// Per-package analyzers run package by package; ModuleAnalyzers run once
// over the full set with the call graph built on demand.
func Run(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	var all []Diagnostic
	merged := ignoreSet{}
	for _, pkg := range pkgs {
		ignores, malformed := collectIgnores(pkg)
		all = append(all, malformed...)
		for file, lines := range ignores {
			if existing, ok := merged[file]; ok {
				for line, names := range lines {
					existing[line] = append(existing[line], names...)
				}
			} else {
				merged[file] = lines
			}
		}
	}
	for _, pkg := range pkgs {
		var raw []Diagnostic
		for _, a := range analyzers {
			if _, isModule := a.(ModuleAnalyzer); isModule {
				continue
			}
			pass := &Pass{
				Fset:     pkg.Fset,
				Pkg:      pkg,
				Info:     pkg.Info,
				analyzer: a.Name(),
				sink:     &raw,
			}
			a.Run(pass)
		}
		for _, d := range raw {
			if !merged.suppresses(d) {
				all = append(all, d)
			}
		}
	}
	var moduleAnalyzers []ModuleAnalyzer
	for _, a := range analyzers {
		if ma, ok := a.(ModuleAnalyzer); ok {
			moduleAnalyzers = append(moduleAnalyzers, ma)
		}
	}
	if len(moduleAnalyzers) > 0 && len(pkgs) > 0 {
		mp := &ModulePass{
			Fset:    pkgs[0].Fset,
			Pkgs:    pkgs,
			Module:  pkgs[0].Module,
			Graph:   BuildCallGraph(pkgs),
			ignores: merged,
		}
		for _, ma := range moduleAnalyzers {
			var raw []Diagnostic
			mp.analyzer = ma.Name()
			mp.sink = &raw
			ma.RunModule(mp)
			for _, d := range raw {
				if !merged.suppresses(d) {
					all = append(all, d)
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all
}

// ignoreSet maps file -> line -> analyzer names suppressed at that line
// ("all" suppresses every analyzer).
type ignoreSet map[string]map[int][]string

func (s ignoreSet) suppresses(d Diagnostic) bool {
	lines := s[d.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, name := range lines[d.Pos.Line] {
		if name == "all" || name == d.Analyzer {
			return true
		}
	}
	return false
}

// collectIgnores scans every comment in the package for lint:ignore
// directives, in both line-comment and single-line block-comment form. A
// directive sharing its line with code suppresses findings on that line; a
// directive alone on its line suppresses the line below instead. Malformed
// directives (no analyzer name or no reason) are returned as diagnostics so
// they cannot silently disable nothing.
func collectIgnores(pkg *Package) (ignoreSet, []Diagnostic) {
	set := ignoreSet{}
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := directiveText(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Message:  "malformed //lint:ignore directive: want \"//lint:ignore <analyzer|all> <reason>\"",
					})
					continue
				}
				line := pos.Line
				if standsAlone(pkg.Fset, f, c) {
					line++
				}
				byLine := set[pos.Filename]
				if byLine == nil {
					byLine = map[int][]string{}
					set[pos.Filename] = byLine
				}
				byLine[line] = append(byLine[line], fields[0])
			}
		}
	}
	return set, bad
}

// directiveText extracts the text after "lint:ignore" from a line comment
// ("//lint:ignore ...") or a block comment ("/*lint:ignore ...*/"),
// reporting whether the comment is a directive at all.
func directiveText(comment string) (string, bool) {
	if rest, ok := strings.CutPrefix(comment, "//lint:ignore"); ok {
		return rest, true
	}
	if body, ok := strings.CutPrefix(comment, "/*"); ok {
		body = strings.TrimSuffix(body, "*/")
		if rest, ok := strings.CutPrefix(body, "lint:ignore"); ok {
			return rest, true
		}
	}
	return "", false
}

// standsAlone reports whether the comment shares its line with no syntax
// node — code before it (a trailing directive) and code after it (a leading
// /* */ directive) both bind the directive to its own line.
func standsAlone(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	cline := fset.Position(c.Pos()).Line
	alone := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !alone {
			return false
		}
		if n.Pos() == token.NoPos {
			return true
		}
		if _, isFile := n.(*ast.File); !isFile && fset.Position(n.Pos()).Line == cline {
			alone = false
			return false
		}
		return true
	})
	return alone
}

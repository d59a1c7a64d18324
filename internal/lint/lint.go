// Package lint is the repo's static-analysis suite: a small, dependency-free
// analog of golang.org/x/tools/go/analysis (which this module deliberately
// does not vendor) plus four analyzers that mechanically enforce invariants
// the hot paths rely on and that previously lived only in prose:
//
//   - lockorder: the declared mutex acquisition order (striped-fetch →
//     dialer in pan, fetch → status in stripe, link → clock in netsim) is
//     never inverted on any static call path.
//   - buflease: every netsim.GetBuf lease reaches exactly one ownership
//     sink (PutBuf, Link.SendOwned, or an annotated transfer function) on
//     every return path, and is never used after it is sunk.
//   - wallclock: all time in tango code flows through netsim.Clock; direct
//     package-time calls are confined to the RealClock implementation and
//     explicitly annotated escape hatches.
//   - atomicfield: a struct field accessed through sync/atomic anywhere in
//     a package is never read or written plainly elsewhere in it.
//
// Annotations are ordinary comments of the form "//lint:verb args". See
// docs/static-analysis.md for the grammar and cmd/skiplint for the driver,
// which runs either standalone (it loads and typechecks packages from
// source, offline) or as a `go vet -vettool` unit checker.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. The API mirrors
// go/analysis.Analyzer so the suite could be rebased onto x/tools without
// touching the analyzers themselves.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Facts carries analyzer conclusions across package boundaries, keyed by
// analyzer name and then by an analyzer-chosen key (typically ObjKey of a
// function or type). The driver merges every dependency's exported facts
// into Pass.Deps and persists Pass.Out — as a .vetx file under go vet, or
// in-process in standalone mode.
type Facts map[string]map[string]string

// Get returns the fact value for (analyzer, key), or "".
func (f Facts) Get(analyzer, key string) string {
	if f == nil {
		return ""
	}
	return f[analyzer][key]
}

// Set records a fact value for (analyzer, key).
func (f Facts) Set(analyzer, key, value string) {
	m := f[analyzer]
	if m == nil {
		m = make(map[string]string)
		f[analyzer] = m
	}
	m[key] = value
}

// Merge copies every fact in src into f.
func (f Facts) Merge(src Facts) {
	for a, m := range src {
		for k, v := range m {
			f.Set(a, k, v)
		}
	}
}

// A Pass holds one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Deps holds facts exported by this package's (transitive)
	// dependencies; Out receives facts this package exports to its
	// importers.
	Deps Facts
	Out  Facts

	// Report receives diagnostics. The driver fills it.
	Report func(Diagnostic)

	dirs map[*ast.File][]Directive
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// ExportFact records a cross-package fact under this analyzer's name.
func (p *Pass) ExportFact(key, value string) { p.Out.Set(p.Analyzer.Name, key, value) }

// DepFact reads a dependency fact recorded under this analyzer's name.
func (p *Pass) DepFact(key string) string { return p.Deps.Get(p.Analyzer.Name, key) }

// A Directive is one "//lint:verb args" comment.
type Directive struct {
	Pos  token.Pos
	Line int    // line the comment starts on
	Verb string // e.g. "lockorder", "allow-wallclock", "lease"
	Args string // remainder, space-trimmed
}

const directivePrefix = "//lint:"

// Directives returns every lint directive in file, in source order. Results
// are memoized per pass.
func (p *Pass) Directives(file *ast.File) []Directive {
	if d, ok := p.dirs[file]; ok {
		return d
	}
	var out []Directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			verb, args, _ := strings.Cut(text, " ")
			// Allow a trailing comment after the directive (used by test
			// fixtures for "// want" expectations on the same line).
			if i := strings.Index(args, "//"); i >= 0 {
				args = args[:i]
			}
			out = append(out, Directive{
				Pos:  c.Pos(),
				Line: p.Fset.Position(c.Pos()).Line,
				Verb: verb,
				Args: strings.TrimSpace(args),
			})
		}
	}
	if p.dirs == nil {
		p.dirs = make(map[*ast.File][]Directive)
	}
	p.dirs[file] = out
	return out
}

// Allowed reports whether a diagnostic at pos is suppressed by a
// "//lint:<verb> <reason>" directive on the same line or the line directly
// above. A directive with an empty reason does not suppress: escape hatches
// must say why.
func (p *Pass) Allowed(verb string, pos token.Pos) bool {
	file := p.FileFor(pos)
	if file == nil {
		return false
	}
	line := p.Fset.Position(pos).Line
	for _, d := range p.Directives(file) {
		if d.Verb == verb && d.Args != "" && (d.Line == line || d.Line == line-1) {
			return true
		}
	}
	return false
}

// FileFor returns the syntax file containing pos, or nil.
func (p *Pass) FileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// DirectiveForField returns the directive with the given verb attached to a
// struct field: on the field's own line, in its doc comment, or in its
// trailing line comment.
func (p *Pass) DirectiveForField(verb string, field *ast.Field) (Directive, bool) {
	file := p.FileFor(field.Pos())
	if file == nil {
		return Directive{}, false
	}
	lines := map[int]bool{p.Fset.Position(field.Pos()).Line: true}
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			lines[p.Fset.Position(c.Pos()).Line] = true
		}
	}
	for _, d := range p.Directives(file) {
		if d.Verb == verb && lines[d.Line] {
			return d, true
		}
	}
	return Directive{}, false
}

// ObjKey returns a stable cross-package key for a top-level func, method, or
// struct field: "pkgpath.Name", "pkgpath.(Recv).Name" for methods, or
// "pkgpath.Struct.Field" for fields.
func ObjKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			rt := sig.Recv().Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if named, ok := rt.(*types.Named); ok {
				return obj.Pkg().Path() + ".(" + named.Obj().Name() + ")." + obj.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// Analyzers is the full suite, in the order the driver runs them.
var Analyzers = []*Analyzer{LockOrder, BufLease, WallClock, AtomicField}

// RunAnalyzers runs the whole suite over one loaded package, returning
// sorted diagnostics and the package's exported facts.
func RunAnalyzers(pkg *Package, deps Facts) ([]Diagnostic, Facts, error) {
	var diags []Diagnostic
	out := make(Facts)
	for _, a := range Analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Deps:     deps,
			Out:      out,
			Report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, out, nil
}

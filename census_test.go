//go:build census

package repro

// The census type-checks every package under internal/, cmd/ and
// examples/ with its tests, and bench/ as a consumer, then holds the
// exported, non-test declarations under internal/ and cmd/ to four rules:
//
//   - R1: every struct field is written somewhere — a keyed or positional
//     composite literal, an assignment, an increment or a taken address.
//   - R2: every package-level func, type, const and var is referenced
//     somewhere other than its own declaration.
//   - R3: every package-level name that only _test.go files reference is
//     named, qualified (`pkg.Name`), in ARCHITECTURE.md's "Kept on purpose"
//     list, which is the one allowlist.
//   - R4: every exported method of a named non-interface type, whose name
//     no interface in the type-checked program declares (interface
//     dispatch would hide its callers), is referenced by a non-test file —
//     a promoted call counts — or it, `pkg.Type.Method`, or its type,
//     `pkg.Type`, is named in that list.
//   - R5: every qualified name the list gives (`pkg.Name`, `pkg.Type.Method`
//     or `pkg.Type.Field`) names a declaration the census saw, so an entry
//     does not outlive what it kept.
//
// Embedded fields are out of scope. This module's packages are
// type-checked from source here, each once without its tests and once
// with its in-package tests, and keyed by file offset so the variants
// agree; the standard library comes from go/importer's "source" importer.
// Run it with
//
//	go test -tags census -run '^TestCensus$' .

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const censusModule = "repro"

// censusKey names a declaration or a use by file and byte offset, which
// stays the same across the several type-checks that see one file.
type censusKey struct {
	file string
	off  int
}

// censusDecl is one exported declaration the rules hold.
type censusDecl struct {
	name string    // qualified: pkg.Name or pkg.Type.Field
	span [2]int    // byte offsets of the declaring spec in its file
	obj  censusKey // the declared identifier
}

type census struct {
	root  string
	fset  *token.FileSet
	std   types.ImporterFrom
	plain map[string]*types.Package // import path → non-test variant

	decls   []censusDecl // package-level names (R2, R3)
	fields  []censusDecl // struct fields (R1)
	methods []censusDecl // methods of non-interface types (R4)
	pkgs    []*types.Package
	iface   map[string]bool // method names some interface declares
	uses    map[censusKey]map[censusKey]bool
	written map[censusKey]bool
	recv    map[censusKey]bool   // identifiers inside a method receiver
	spans   map[censusKey][2]int // declared identifier → its spec's offsets
}

func newCensus(t *testing.T) *census {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	return &census{
		root:    root,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		plain:   map[string]*types.Package{},
		uses:    map[censusKey]map[censusKey]bool{},
		written: map[censusKey]bool{},
		recv:    map[censusKey]bool{},
		spans:   map[censusKey][2]int{},
		iface:   map[string]bool{},
	}
}

func (c *census) key(pos token.Pos) censusKey {
	p := c.fset.Position(pos)
	return censusKey{p.Filename, p.Offset}
}

func (c *census) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, c.root, 0)
}

// ImportFrom type-checks this module's packages from source, non-test
// files only, once each; everything else goes to the source importer.
func (c *census) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if !strings.HasPrefix(path, censusModule+"/") {
		return c.std.ImportFrom(path, dir, mode)
	}
	if p := c.plain[path]; p != nil {
		return p, nil
	}
	bp, err := build.ImportDir(filepath.Join(c.root, strings.TrimPrefix(path, censusModule+"/")), 0)
	if err != nil {
		return nil, err
	}
	p, err := c.check(path, bp.Dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	c.plain[path] = p
	return p, nil
}

// check parses and type-checks one package and records its uses, writes
// and receivers.
func (c *census) check(path, dir string, names []string) (*types.Package, error) {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []error
	conf := types.Config{Importer: c, Error: func(err error) { errs = append(errs, err) }}
	pkg, _ := conf.Check(path, c.fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-check %s: %w", path, errors.Join(errs...))
	}
	c.record(files, info)
	c.pkgs = append(c.pkgs, pkg)
	return pkg, nil
}

// record notes, from one type-checked package, every use of this module's
// objects, every struct field written, every identifier inside a method
// receiver, every function's and package-level declaration's span, and
// the methods of every interface type it spells.
func (c *census) record(files []*ast.File, info *types.Info) {
	for _, tv := range info.Types {
		c.interfaceMethods(tv.Type)
	}
	for id, obj := range info.Uses {
		if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), censusModule+"/") {
			continue
		}
		k := c.key(obj.Pos())
		if c.uses[k] == nil {
			c.uses[k] = map[censusKey]bool{}
		}
		c.uses[k][c.key(id.Pos())] = true
	}
	field := func(e ast.Expr) {
		if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if sel := info.Selections[s]; sel != nil && sel.Kind() == types.FieldVal {
				c.written[c.key(sel.Obj().Pos())] = true
			}
		}
	}
	span := func(id *ast.Ident, n ast.Node) {
		c.spans[c.key(id.Pos())] = [2]int{c.fset.Position(n.Pos()).Offset, c.fset.Position(n.End()).Offset}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				st, ok := info.Types[n].Type.Underlying().(*types.Struct)
				if !ok || len(n.Elts) == 0 {
					break
				}
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
					for i := 0; i < st.NumFields(); i++ {
						c.written[c.key(st.Field(i).Pos())] = true
					}
					break
				}
				for _, e := range n.Elts {
					if id, ok := e.(*ast.KeyValueExpr).Key.(*ast.Ident); ok && info.Uses[id] != nil {
						c.written[c.key(info.Uses[id].Pos())] = true
					}
				}
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					field(e)
				}
			case *ast.RangeStmt:
				field(n.Key)
				field(n.Value)
			case *ast.IncDecStmt:
				field(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					field(n.X)
				}
			case *ast.TypeSpec:
				span(n.Name, n)
			case *ast.ValueSpec:
				for _, id := range n.Names {
					span(id, n)
				}
			case *ast.FuncDecl:
				span(n.Name, n)
				if n.Recv != nil {
					ast.Inspect(n.Recv, func(r ast.Node) bool {
						if id, ok := r.(*ast.Ident); ok {
							c.recv[c.key(id.Pos())] = true
						}
						return true
					})
				}
			}
			return true
		})
	}
}

// interfaceMethods notes the method names of t's interface, if it is one.
func (c *census) interfaceMethods(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			c.iface[it.Method(i).Name()] = true
		}
	}
}

// declare records the exported package-level names of one package's
// non-test files, the exported fields of its exported struct types and
// the exported methods of its named non-interface types.
func (c *census) declare(pkg *types.Package, qual string) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		tn, isType := obj.(*types.TypeName)
		if isType && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					k := c.key(m.Pos())
					c.methods = append(c.methods, censusDecl{name: qual + "." + name + "." + m.Name(), obj: k, span: c.spans[k]})
				}
			}
		}
		if !obj.Exported() {
			continue
		}
		k := c.key(obj.Pos())
		c.decls = append(c.decls, censusDecl{name: qual + "." + name, obj: k, span: c.spans[k]})
		if !isType || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() && !f.Embedded() {
				c.fields = append(c.fields, censusDecl{name: qual + "." + name + "." + f.Name(), obj: c.key(f.Pos())})
			}
		}
	}
}

// censusPackages lists the package directories under internal/, cmd/ and
// examples/, relative to the module root.
func censusPackages(t *testing.T, root string) []string {
	var dirs []string
	for _, top := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(p, ".go") {
				rel, _ := filepath.Rel(root, filepath.Dir(p))
				if len(dirs) == 0 || dirs[len(dirs)-1] != rel {
					dirs = append(dirs, rel)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

// keptOnPurpose returns ARCHITECTURE.md's "Kept on purpose" paragraph and
// its bullets, up to the next bold paragraph or heading.
func keptOnPurpose(t *testing.T, root string) string {
	b, err := os.ReadFile(filepath.Join(root, "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(b), "**Kept on purpose.**")
	if !ok {
		t.Fatal(`ARCHITECTURE.md has no "**Kept on purpose.**" paragraph`)
	}
	if end := regexp.MustCompile(`\n(\*\*|#)`).FindStringIndex(rest); end != nil {
		rest = rest[:end[0]]
	}
	return rest
}

func TestCensus(t *testing.T) {
	c := newCensus(t)
	for _, rel := range censusPackages(t, c.root) {
		path := censusModule + "/" + filepath.ToSlash(rel)
		dir := filepath.Join(c.root, rel)
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := c.ImportFrom(path, dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(rel, "examples") {
			c.declare(pkg, filepath.Base(rel))
		}
		if len(bp.TestGoFiles) > 0 {
			if _, err := c.check(path, dir, append(bp.GoFiles, bp.TestGoFiles...)); err != nil {
				t.Fatal(err)
			}
		}
		if len(bp.XTestGoFiles) > 0 {
			if _, err := c.check(path+"_test", dir, bp.XTestGoFiles); err != nil {
				t.Fatal(err)
			}
		}
	}
	bench := filepath.Join(c.root, "bench")
	bp, err := build.ImportDir(bench, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.check(censusModule+"/bench", bench, append(bp.GoFiles, bp.TestGoFiles...)); err != nil {
		t.Fatal(err)
	}

	// Every interface the program can see, the standard library's too.
	seen := map[*types.Package]bool{}
	for len(c.pkgs) > 0 {
		p := c.pkgs[len(c.pkgs)-1]
		c.pkgs = c.pkgs[:len(c.pkgs)-1]
		if seen[p] {
			continue
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				c.interfaceMethods(tn.Type())
			}
		}
		c.pkgs = append(c.pkgs, p.Imports()...)
	}

	kept := keptOnPurpose(t, c.root)
	named := func(name string) bool {
		return regexp.MustCompile(`(^|[^\w.])` + regexp.QuoteMeta(name) + `($|[^\w.])`).MatchString(kept)
	}
	// uses counts d's references outside its own declaration and receivers,
	// and those from non-test files.
	uses := func(d censusDecl) (other, nonTest int) {
		for u := range c.uses[d.obj] {
			if c.recv[u] || (u.file == d.obj.file && u.off >= d.span[0] && u.off < d.span[1]) {
				continue
			}
			other++
			if !strings.HasSuffix(u.file, "_test.go") {
				nonTest++
			}
		}
		return other, nonTest
	}
	var bad []string
	for _, f := range c.fields {
		if !c.written[f.obj] {
			bad = append(bad, "R1: field "+f.name+" is never written")
		}
	}
	for _, d := range c.decls {
		other, nonTest := uses(d)
		switch {
		case other == 0:
			bad = append(bad, "R2: "+d.name+" is never referenced")
		case nonTest == 0 && !regexp.MustCompile(`\b`+regexp.QuoteMeta(d.name)+`\b`).MatchString(kept):
			bad = append(bad, "R3: "+d.name+` is referenced only by tests and is not in ARCHITECTURE.md "Kept on purpose"`)
		}
	}
	for _, m := range c.methods {
		typ := m.name[:strings.LastIndexByte(m.name, '.')]
		if _, nonTest := uses(m); nonTest == 0 && !c.iface[m.name[len(typ)+1:]] && !named(m.name) && !named(typ) {
			bad = append(bad, "R4: method "+m.name+` has no non-test caller and is not in ARCHITECTURE.md "Kept on purpose"`)
		}
	}
	// R5 reads the entries, the bullets: the prose above them spells the
	// rules with placeholders (`pkg.Type`).
	declared := map[string]bool{}
	for _, ds := range [][]censusDecl{c.decls, c.fields, c.methods} {
		for _, d := range ds {
			declared[d.name] = true
		}
	}
	_, entries, _ := strings.Cut(kept, "\n- ")
	for _, m := range regexp.MustCompile(`(?:^|[^\w./])([a-z]\w*(?:\.[A-Z]\w*)+)`).FindAllStringSubmatch(entries, -1) {
		if !declared[m[1]] {
			bad = append(bad, "R5: "+m[1]+` is in ARCHITECTURE.md "Kept on purpose" but declares nothing the census saw`)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

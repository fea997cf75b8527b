package eswitch

import (
	"encoding/json"
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"eswitch/internal/core"
	"eswitch/internal/dpdk"
	"eswitch/internal/ovs"
)

// ledgerDoc is the document holding the mechanism and API ledgers, and
// ledgerHeading and apiHeading the headings of their sections.
const (
	ledgerDoc     = "docs/architecture.md"
	ledgerHeading = "## Mechanism ledger"
	apiHeading    = "## API ledger"
)

// TestMechanismLedger keeps the mechanism ledger and the code in step: every
// settable value — each field of the four option structs, each Set*/Arm*
// method of dpdk.Switch, each eswitchd flag — has exactly one row, every row
// names a knob that exists, and every row gives a reason that names things
// that exist (tests, bench workloads, figures) or says "deployment" or that
// the knob waits for the [benchmark] PR.
func TestMechanismLedger(t *testing.T) {
	knobs := map[string]bool{}
	for _, v := range []any{core.Options{}, ovs.Options{}, dpdk.SwitchConfig{}, dpdk.PcapConfig{}} {
		for _, name := range structKnobs(reflect.TypeOf(v)) {
			knobs[name] = true
		}
	}
	sw := reflect.TypeOf((*dpdk.Switch)(nil))
	for i := 0; i < sw.NumMethod(); i++ {
		if m := sw.Method(i).Name; strings.HasPrefix(m, "Set") || strings.HasPrefix(m, "Arm") {
			knobs["dpdk.Switch."+m] = true
		}
	}
	for _, name := range eswitchdFlags(t) {
		knobs["eswitchd -"+name] = true
	}

	rows := ledgerRows(t)
	tests := testFuncs(t)
	workloads := benchWorkloads(t)
	figures := experimentFigures(t)
	cited := regexp.MustCompile("`((?:Test|Benchmark|Fuzz|Example)\\w+)`")
	workload := regexp.MustCompile("workloads? ((?:`\\w+`(?:, )?)+)|e\\.g\\. `(\\w+)`")
	figure := regexp.MustCompile("`-figure (\\w+)`")

	for knob := range knobs {
		if _, ok := rows[knob]; !ok {
			t.Errorf("%s: no row for %q in %s", ledgerHeading, knob, ledgerDoc)
		}
	}
	for knob, why := range rows {
		if !knobs[knob] {
			t.Errorf("ledger row %q names no settable value in the code", knob)
		}
		reasons := 0
		if strings.Contains(why, "deployment") || strings.Contains(why, "waits for the `[benchmark]` PR") {
			reasons++
		}
		for _, m := range cited.FindAllStringSubmatch(why, -1) {
			if !tests[m[1]] {
				t.Errorf("ledger row %q cites %s, which no _test.go file defines", knob, m[1])
			}
			reasons++
		}
		for _, m := range workload.FindAllStringSubmatch(why, -1) {
			for _, w := range strings.Split(m[1]+m[2], ",") {
				if w = strings.Trim(strings.TrimSpace(w), "`"); !workloads[w] {
					t.Errorf("ledger row %q cites workload %q, which BENCHMARK.json does not declare", knob, w)
				}
				reasons++
			}
		}
		for _, m := range figure.FindAllStringSubmatch(why, -1) {
			if !figures[m[1]] {
				t.Errorf("ledger row %q cites -figure %s, which eswitch-experiments does not render", knob, m[1])
			}
			reasons++
		}
		if reasons == 0 {
			t.Errorf("ledger row %q names no workload, figure, test, deployment or [benchmark] PR: %q", knob, why)
		}
	}
}

// structKnobs lists a struct's fields as "pkg.Type.Field", descending into
// embedded structs (core.Options embeds bench/'s shim).
func structKnobs(typ reflect.Type) []string {
	var out []string
	var walk func(reflect.Type)
	walk = func(st reflect.Type) {
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			if f.Anonymous && f.Type.Kind() == reflect.Struct {
				walk(f.Type)
				continue
			}
			if f.IsExported() {
				out = append(out, typ.String()+"."+f.Name)
			}
		}
	}
	walk(typ)
	return out
}

// eswitchdFlags parses cmd/eswitchd and returns the name of every flag it
// defines with a flag.<Kind>("name", ...) or flag.<Kind>Var(&v, "name", ...)
// call.
func eswitchdFlags(t *testing.T) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "cmd/eswitchd/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		arg := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1
		}
		if len(call.Args) <= arg {
			return true
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
		return true
	})
	if len(names) == 0 {
		t.Fatal("found no flag definitions in cmd/eswitchd/main.go")
	}
	return names
}

// ledgerRows reads the mechanism ledger's table: knob (the first cell,
// unquoted) to reason (the second cell).
func ledgerRows(t *testing.T) map[string]string {
	t.Helper()
	return docTable(t, ledgerHeading)
}

// docTable reads the two-column table of ledgerDoc's section under heading:
// the first cell, unquoted, to the second.
func docTable(t *testing.T, heading string) map[string]string {
	t.Helper()
	doc, err := os.ReadFile(ledgerDoc)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n"+heading+"\n")
	if !ok {
		t.Fatalf("%s has no %q section", ledgerDoc, heading)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 4 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		knob := strings.Trim(strings.TrimSpace(cells[1]), "`")
		if _, dup := rows[knob]; dup {
			t.Errorf("%s has two rows for %q", heading, knob)
		}
		rows[knob] = strings.TrimSpace(cells[2])
	}
	if len(rows) == 0 {
		t.Fatalf("%s section of %s has no rows", heading, ledgerDoc)
	}
	return rows
}

// testFuncs collects the name of every Test, Benchmark, Fuzz and Example
// function in the repository's _test.go files.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w+)\(`)
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			names[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// benchWorkloads returns the workload names BENCHMARK.json declares.
func benchWorkloads(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, w := range spec.Workloads {
		names[w.Name] = true
	}
	return names
}

// experimentFigures returns the figure names eswitch-experiments accepts
// for -figure (the keys of its runners map).
func experimentFigures(t *testing.T) map[string]bool {
	t.Helper()
	src, err := os.ReadFile("cmd/eswitch-experiments/main.go")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\s*"(\w+)":\s+experiments\.\w+,$`).FindAllSubmatch(src, -1) {
		names[string(m[1])] = true
	}
	if len(names) == 0 {
		t.Fatal("found no figures in cmd/eswitch-experiments/main.go")
	}
	return names
}

// apiReason is the form of an API ledger row's reason: the three reasons an
// exported identifier with no caller may stay.
var apiReason = regexp.MustCompile("^(wire enumeration|operator API|test harness): \\S")

// TestAPILedger keeps the exported surface of internal/ honest: every
// exported identifier declared in a non-test internal/ file — package-level
// funcs, types, consts and vars, and the exported methods of exported types —
// has a non-test use in some other file of the root module or of bench/, or
// a row in the API ledger saying why it stays.  A row names one identifier (a
// type's row covers its constants) and fails when that identifier is gone,
// is used after all, or cites a test that does not exist.
func TestAPILedger(t *testing.T) {
	rows := docTable(t, apiHeading)
	unused := uncalledAPI(t, rows)
	t.Logf("%d exported identifiers have no caller outside their file", len(unused))
	tests := testFuncs(t)
	cited := regexp.MustCompile("`(Test\\w+)`")

	names := make([]string, 0, len(unused))
	for name := range unused {
		names = append(names, name)
	}
	sort.Strings(names)
	needed := map[string]bool{}
	for _, name := range names {
		owner := unused[name]
		if _, ok := rows[name]; ok {
			needed[name] = true
		} else if _, ok := rows[owner]; ok && owner != "" {
			needed[owner] = true
		} else {
			t.Errorf("%s has no caller outside its file: delete it, unexport it, or give it a row in %s of %s", name, apiHeading, ledgerDoc)
		}
	}
	for name, why := range rows {
		if !needed[name] {
			t.Errorf("API ledger row %q: no uncalled exported identifier of that name (gone, or called after all)", name)
		}
		if !apiReason.MatchString(why) {
			t.Errorf("API ledger row %q gives no wire enumeration, operator API or test harness reason: %q", name, why)
		}
		if strings.HasPrefix(why, "test harness:") && cited.FindString(why) == "" {
			t.Errorf("API ledger row %q names no test", name)
		}
		for _, m := range cited.FindAllStringSubmatch(why, -1) {
			if !tests[m[1]] {
				t.Errorf("API ledger row %q cites %s, which no _test.go file defines", name, m[1])
			}
		}
	}
}

// uncalledAPI type-checks every non-test package of the root module and of
// bench/ and returns the exported identifiers of internal/ with no non-test
// use outside their declaring file, as "pkg.Name" or "pkg.Type.Method", each
// mapped to its covering type ("pkg.Type" for a constant of a named type,
// else "").  A type counts as used when the signature, type or exported field
// of a used identifier, or of one the rows name, mentions it; a method counts
// as used when its receiver implements an interface of the module or the
// standard library that declares it.
func uncalledAPI(t *testing.T, rows map[string]string) map[string]string {
	t.Helper()
	s := newAPIScan(t)
	for path := range s.dirs {
		if _, err := s.check(path); err != nil {
			t.Fatal(err)
		}
	}

	used := map[types.Object]bool{}
	var queue []types.Object
	mark := func(obj types.Object) {
		if obj != nil && !used[obj] && isInternal(obj.Pkg()) {
			used[obj] = true
			queue = append(queue, obj)
		}
	}
	for id, obj := range s.info.Uses {
		if s.fset.Position(id.Pos()).Filename != s.fset.Position(obj.Pos()).Filename {
			mark(origin(obj))
		}
	}
	// mention marks the named types typ spells out; a named type's own
	// structure is walked when the queue reaches it.
	var mention func(types.Type)
	mention = func(typ types.Type) {
		switch typ := typ.(type) {
		case *types.Alias:
			mark(typ.Obj())
			mention(types.Unalias(typ))
		case *types.Named:
			mark(typ.Origin().Obj())
			for i := 0; i < typ.TypeArgs().Len(); i++ {
				mention(typ.TypeArgs().At(i))
			}
		case *types.Pointer:
			mention(typ.Elem())
		case *types.Slice:
			mention(typ.Elem())
		case *types.Array:
			mention(typ.Elem())
		case *types.Chan:
			mention(typ.Elem())
		case *types.Map:
			mention(typ.Key())
			mention(typ.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{typ.Params(), typ.Results()} {
				for i := 0; i < tup.Len(); i++ {
					mention(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < typ.NumFields(); i++ {
				if f := typ.Field(i); f.Exported() || f.Embedded() {
					mention(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < typ.NumExplicitMethods(); i++ {
				mention(typ.ExplicitMethod(i).Type())
			}
			for i := 0; i < typ.NumEmbeddeds(); i++ {
				mention(typ.EmbeddedType(i))
			}
		}
	}
	for name := range rows {
		if obj := s.lookup(name); obj != nil {
			queue = append(queue, obj)
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		typ := obj.Type()
		if _, ok := obj.(*types.TypeName); ok {
			typ = typ.Underlying()
		}
		mention(typ)
	}

	ifaces := s.interfaces()
	unused := map[string]string{}
	for _, pkg := range s.pkgs {
		if !isInternal(pkg) {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				owner := ""
				if c, ok := obj.(*types.Const); ok {
					if n, ok := c.Type().(*types.Named); ok && n.Obj().Pkg() == pkg {
						owner = pkg.Name() + "." + n.Obj().Name()
					}
				}
				unused[pkg.Name()+"."+name] = owner
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			for _, m := range exportedMethods(tn.Type().(*types.Named)) {
				if !used[m] && !implementsFor(tn.Type(), m.Name(), ifaces) {
					unused[pkg.Name()+"."+name+"."+m.Name()] = ""
				}
			}
		}
	}
	return unused
}

// exportedMethods returns the exported methods declared on a named type.
func exportedMethods(n *types.Named) []*types.Func {
	var out []*types.Func
	for i := 0; i < n.NumMethods(); i++ {
		if m := n.Method(i); m.Exported() {
			out = append(out, m)
		}
	}
	return out
}

// implementsFor reports whether typ or *typ implements one of ifaces that
// declares a method called name.
func implementsFor(typ types.Type, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, name); obj == nil {
			continue
		}
		if types.Implements(typ, it) || types.Implements(types.NewPointer(typ), it) {
			return true
		}
	}
	return false
}

// origin returns the generic declaration behind an instantiated object.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func isInternal(pkg *types.Package) bool {
	return pkg != nil && strings.HasPrefix(pkg.Path(), "eswitch/internal/")
}

// apiScan type-checks the non-test files of the root module's packages and
// of bench/ (import path eswitch/bench, which replaces eswitch with ../),
// sharing one types.Info; the standard library comes from source, so the
// scan needs neither network nor export data.
type apiScan struct {
	fset *token.FileSet
	std  types.ImporterFrom
	info *types.Info
	dirs map[string]string // import path to directory
	pkgs map[string]*types.Package
}

func newAPIScan(t *testing.T) *apiScan {
	t.Helper()
	// Only the standard library's pure-Go files: cgo would need a C
	// compiler, and the scan only reads interfaces from it.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	s := &apiScan{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		dirs: map[string]string{},
		pkgs: map[string]*types.Package{},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		s.dirs[filepath.ToSlash(filepath.Join("eswitch", path))] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *apiScan) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

func (s *apiScan) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := s.dirs[path]; ok {
		return s.check(path)
	}
	return s.std.ImportFrom(path, dir, mode)
}

// check type-checks the package at path once; a directory with no Go files
// for this platform yields a nil package.
func (s *apiScan) check(path string) (*types.Package, error) {
	if pkg, ok := s.pkgs[path]; ok {
		return pkg, nil
	}
	bp, err := build.Default.ImportDir(s.dirs[path], 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		s.pkgs[path] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = pkg
	return pkg, nil
}

// lookup returns the internal/ object a "pkg.Name" or "pkg.Type.Method" row
// names, or nil.
func (s *apiScan) lookup(name string) types.Object {
	parts := strings.Split(name, ".")
	if len(parts) < 2 {
		return nil
	}
	for _, pkg := range s.pkgs {
		if !isInternal(pkg) || pkg.Name() != parts[0] {
			continue
		}
		obj := pkg.Scope().Lookup(parts[1])
		if len(parts) == 3 && obj != nil {
			obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, pkg, parts[2])
		}
		return obj
	}
	return nil
}

// interfaces returns the interfaces a method may implement: every named
// interface of the module and of the standard-library packages it imports,
// every interface literal the module spells, and error.
func (s *apiScan) interfaces() []*types.Interface {
	var out []*types.Interface
	add := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	for _, pkg := range s.pkgs {
		if pkg == nil {
			continue
		}
		for _, p := range append([]*types.Package{pkg}, pkg.Imports()...) {
			if seen[p] {
				continue
			}
			seen[p] = true
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					add(tn.Type())
				}
			}
		}
	}
	for _, tv := range s.info.Types {
		if _, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
			add(tv.Type)
		}
	}
	return out
}

// TestBenchModuleVets compiles and vets bench/, a module of its own that
// `go test ./...` never builds.  Its uses count as callers in TestAPILedger,
// so this is what makes deleting an identifier it names fail tier-1.
func TestBenchModuleVets(t *testing.T) {
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off", "GOFLAGS=")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}

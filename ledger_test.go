package eswitch

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"eswitch/internal/core"
	"eswitch/internal/dpdk"
	"eswitch/internal/ovs"
)

// ledgerDoc is the document holding the mechanism ledger, and ledgerHeading
// the heading of its section.
const (
	ledgerDoc     = "docs/architecture.md"
	ledgerHeading = "## Mechanism ledger"
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

// ledgerRows reads the ledger table: knob (the first cell, unquoted) to
// reason (the second cell).
func ledgerRows(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile(ledgerDoc)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n"+ledgerHeading+"\n")
	if !ok {
		t.Fatalf("%s has no %q section", ledgerDoc, ledgerHeading)
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
			t.Errorf("ledger has two rows for %q", knob)
		}
		rows[knob] = strings.TrimSpace(cells[2])
	}
	if len(rows) == 0 {
		t.Fatalf("%s section of %s has no rows", ledgerHeading, ledgerDoc)
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

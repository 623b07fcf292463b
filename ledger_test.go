package disha_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	disha "repro"
	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/jobserver"
	"repro/internal/network"
)

// TestMechanismLedger holds ARCHITECTURE.md's mechanism ledger and the code
// to each other, both ways: every mechanism the code has needs a row, and
// every name a row gives must exist. Each list is read from the code itself:
//   - reconfig kind: network.ReconfigKind's text form, from 0 up to the first
//     value MarshalText refuses;
//   - harness.Spec and network.Config: their fields, by reflection;
//   - cmd and example: the directories under cmd/ and examples/;
//   - facade: the exported functions, types and methods of the root
//     package's non-test files, by go/parser (a method as Type.Method);
//   - telemetry: the families a network hub and a job server with a fleet
//     coordinator render on /metrics.
//
// A row's Serves cell must cite a DESIGN.md inventory row that exists, an
// EXPERIMENTS.md heading (quoted, any part of it), or say "tests only", and
// must not say "no caller": such a mechanism goes instead. Every facade name
// the frozen benchmark module selects (benchmarkSelections) must be named in
// its row's Serves cell after "benchmark/ uses", so no row can call it
// unused.
func TestMechanismLedger(t *testing.T) {
	code := map[string][]string{
		"reconfig kind":  reconfigKinds(),
		"harness.Spec":   fieldNames(reflect.TypeOf(harness.Spec{})),
		"network.Config": fieldNames(reflect.TypeOf(network.Config{})),
		"cmd":            dirNames(t, "cmd"),
		"example":        dirNames(t, "examples"),
		"facade":         facadeNames(t),
		"telemetry":      telemetryFamilies(t),
	}
	rows := ledgerRows(t)
	design := designRows(t)
	headings := experimentsHeadings(t)

	listed := map[string]map[string]bool{}
	for _, r := range rows {
		names, ok := code[r.kind]
		if !ok {
			t.Errorf("ledger row %q: unknown kind %q", r.line, r.kind)
			continue
		}
		if listed[r.kind] == nil {
			listed[r.kind] = map[string]bool{}
		}
		for _, name := range r.names {
			if !slices.Contains(names, name) {
				t.Errorf("ledger row %q names %s %q, which the code does not have", r.line, r.kind, name)
			}
			if listed[r.kind][name] {
				t.Errorf("ledger lists %s %q twice", r.kind, name)
			}
			listed[r.kind][name] = true
		}
		checkServes(t, r, design, headings)
	}
	for _, name := range benchmarkSelections(t, code["facade"]) {
		i := slices.IndexFunc(rows, func(r ledgerRow) bool { return r.kind == "facade" && slices.Contains(r.names, name) })
		if i < 0 {
			continue // reported above as a facade name without a row
		}
		_, uses, _ := strings.Cut(rows[i].serves, "benchmark/ uses ")
		if uses, _, _ = strings.Cut(uses, ";"); !strings.Contains(uses, "`"+name+"`") {
			t.Errorf("benchmark/ selects facade %q, but its ledger row %q does not name it after \"benchmark/ uses\"", name, rows[i].line)
		}
	}
	for kind, names := range code {
		if len(names) == 0 {
			t.Errorf("read no %s from the code", kind)
		}
		for _, name := range names {
			if !listed[kind][name] {
				t.Errorf("%s %q has no row in ARCHITECTURE.md's mechanism ledger", kind, name)
			}
		}
	}
}

// ledgerRow is one row of the ledger table: its kind, the backquoted names
// of its mechanism cell, and its Serves cell.
type ledgerRow struct {
	line, kind, serves string
	names              []string
}

// ledgerRows parses the table under ARCHITECTURE.md's "## The mechanism
// ledger" heading, up to the next heading.
func ledgerRows(t *testing.T) []ledgerRow {
	t.Helper()
	doc, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## The mechanism ledger\n")
	if !ok {
		t.Fatal(`ARCHITECTURE.md has no "## The mechanism ledger" section`)
	}
	if end := strings.Index(section, "\n#"); end >= 0 {
		section = section[:end]
	}
	name := regexp.MustCompile("`([^`]+)`")
	var rows []ledgerRow
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 5 || strings.HasPrefix(line, "|--") || strings.TrimSpace(cells[1]) == "Kind" {
			continue
		}
		r := ledgerRow{line: line, kind: strings.TrimSpace(cells[1]), serves: strings.TrimSpace(cells[3])}
		for _, m := range name.FindAllStringSubmatch(cells[2], -1) {
			r.names = append(r.names, m[1])
		}
		if len(r.names) == 0 {
			t.Errorf("ledger row %q names no mechanism", line)
		}
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		t.Fatal("the mechanism ledger has no rows")
	}
	return rows
}

// checkServes requires r's Serves cell to cite at least one claim, each of
// which exists.
func checkServes(t *testing.T, r ledgerRow, design map[string]bool, headings []string) {
	t.Helper()
	cited := strings.Contains(r.serves, "tests only")
	for _, m := range regexp.MustCompile(`DESIGN\.md row (\d+)`).FindAllStringSubmatch(r.serves, -1) {
		cited = true
		if !design[m[1]] {
			t.Errorf("ledger row %q cites DESIGN.md row %s, which the inventory does not have", r.line, m[1])
		}
	}
	for _, m := range regexp.MustCompile(`EXPERIMENTS\.md "([^"]+)"`).FindAllStringSubmatch(r.serves, -1) {
		cited = true
		if !slices.ContainsFunc(headings, func(h string) bool { return strings.Contains(h, m[1]) }) {
			t.Errorf("ledger row %q cites EXPERIMENTS.md %q, which no heading there contains", r.line, m[1])
		}
	}
	if !cited {
		t.Errorf("ledger row %q cites no DESIGN.md row, EXPERIMENTS.md heading or \"tests only\"", r.line)
	}
	if strings.Contains(r.serves, "no caller") {
		t.Errorf("ledger row %q says \"no caller\": a mechanism nothing calls is deleted, not listed", r.line)
	}
}

// designRows returns the numbers of DESIGN.md's system inventory rows.
func designRows(t *testing.T) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\| (\d+) \|`).FindAllSubmatch(doc, -1) {
		rows[string(m[1])] = true
	}
	return rows
}

// experimentsHeadings returns EXPERIMENTS.md's heading lines.
func experimentsHeadings(t *testing.T) []string {
	t.Helper()
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	return regexp.MustCompile(`(?m)^#+ .*$`).FindAllString(string(doc), -1)
}

func reconfigKinds() []string {
	var kinds []string
	for k := network.ReconfigKind(0); ; k++ {
		text, err := k.MarshalText()
		if err != nil {
			return kinds
		}
		kinds = append(kinds, string(text))
	}
}

func fieldNames(typ reflect.Type) []string {
	var names []string
	for i := range typ.NumField() {
		names = append(names, typ.Field(i).Name)
	}
	return names
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names
}

// facadeNames parses the root package's non-test files and returns its
// exported functions and types, and its exported methods as Type.Method.
func facadeNames(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var names []string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, e.Name(), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					names = append(names, d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				names = append(names, recv.(*ast.Ident).Name+"."+d.Name.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
						names = append(names, ts.Name.Name)
					}
				}
			}
		}
	}
	return names
}

// benchmarkSelections parses the benchmark module's files and returns the
// facade names they select: X for a selector disha.X on the root package's
// import, and Type.Method for any selector .Method whatever its receiver,
// an over-approximation that can only ask a row to name more.
func benchmarkSelections(t *testing.T, facade []string) []string {
	t.Helper()
	paths, err := filepath.Glob("benchmark/*.go")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no benchmark/*.go files: %v", err)
	}
	fset := token.NewFileSet()
	selected := map[string]bool{}
	for _, path := range paths {
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := ""
		for _, imp := range file.Imports {
			if imp.Path.Value == `"repro"` {
				pkg = "disha"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
				selected[sel.Sel.Name] = true
			}
			selected["."+sel.Sel.Name] = true
			return true
		})
	}
	var names []string
	for _, name := range facade {
		_, method, isMethod := strings.Cut(name, ".")
		if isMethod && selected["."+method] || !isMethod && selected[name] {
			names = append(names, name)
		}
	}
	return names
}

// telemetryFamilies returns the metric families a network hub renders, and
// those of a job server whose registry also carries a fleet coordinator's
// (disha-serve -fleet), as their "# HELP" lines name them.
func telemetryFamilies(t *testing.T) []string {
	t.Helper()
	topo := disha.Torus(4, 4)
	sim, err := disha.NewSimulator(disha.SimConfig{
		Topo: topo, Algorithm: disha.DishaRouting(0), Pattern: disha.Uniform(topo), LoadRate: 0.1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := sim.EnableTelemetry(disha.TelemetryOptions{}).Registry.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	coord := fabric.NewCoordinator(fabric.CoordinatorOptions{})
	defer coord.Close()
	srv, err := jobserver.NewWithOptions(jobserver.Options{Fleet: coord})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	coord.RegisterMetrics(srv.Registry())
	if err := srv.Registry().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^# HELP (\S+) `).FindAllStringSubmatch(text.String(), -1) {
		seen[m[1]] = true
	}
	var names []string
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

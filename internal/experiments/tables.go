package experiments

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"

	"dlion/internal/env"
	"dlion/internal/report"
)

// runTable1 reproduces Table 1's point — each comparison system is a small
// plugin over the shared framework — by counting the actual lines of this
// repository's plugin surface: the per-system gradient-selection algorithm
// (the generate_partial_gradients analog in internal/grad) and the preset
// wiring (internal/systems). Counting is done from source when the repo is
// available, mirroring how the paper counted changed lines.
func runTable1(Profile) (*Outcome, error) {
	plugins := []struct{ name, selector, preset string }{
		{"Baseline", "Full", "Baseline"},
		{"Hop", "Full", "Hop"}, // Hop exchanges whole gradients; its plugin is the sync strategy
		{"Gaia", "Gaia", "Gaia"},
		{"Ako", "Ako", "Ako"},
		{"DLion(MaxN)", "MaxN", "DLion"},
	}
	cols := []string{"API"}
	selRow := []any{"generate_partial_gradients (selector impl)"}
	cfgRow := []any{"system preset (selector + synch_training wiring)"}
	o := &Outcome{Notes: []string{
		"The paper reports <=23 changed lines per emulated system; here the entire",
		"per-system surface is the selector implementation plus a ~10-line preset,",
		"confirming the framework's generality claim.",
	}}
	for _, s := range plugins {
		sel, err := countDeclLines("internal/grad", s.selector, true)
		if err != nil {
			return nil, err
		}
		preset, err := countDeclLines("internal/systems", s.preset, false)
		if err != nil {
			return nil, err
		}
		cols = append(cols, s.name)
		selRow = append(selRow, sel)
		cfgRow = append(cfgRow, preset)
		o.addValue("preset/"+s.name, float64(preset))
	}
	t := report.NewTable("Table 1: plugin size per system (lines of Go)", cols...)
	t.AddRow(selRow...)
	t.AddRow(cfgRow...)
	o.Text = t.String()
	return o, nil
}

// countDeclLines counts the source lines of the top-level function name in
// a package directory (relative to the repo root) or, with includeMethods,
// of the type name with all of its methods and its NewX constructor.
func countDeclLines(dir, name string, includeMethods bool) (int, error) {
	root, err := repoRoot()
	if err != nil {
		return 0, err
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join(root, dir), nil, 0)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				total += declLinesIfNamed(fset, decl, name, includeMethods)
			}
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("experiments: declaration %q not found in %s", name, dir)
	}
	return total, nil
}

// declLinesIfNamed returns the line count of decl if it is the named
// function, the named type declaration, or (when includeMethods) a method
// on the named type or its NewX constructor; otherwise 0.
func declLinesIfNamed(fset *token.FileSet, decl ast.Decl, name string, includeMethods bool) int {
	span := func(n ast.Node) int {
		return fset.Position(n.End()).Line - fset.Position(n.Pos()).Line + 1
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			if d.Name.Name == name || (includeMethods && d.Name.Name == "New"+name) {
				return span(d)
			}
			return 0
		}
		if !includeMethods {
			return 0
		}
		// method: match receiver base type
		t := d.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if ident, ok := t.(*ast.Ident); ok && ident.Name == name {
			return span(d)
		}
	case *ast.GenDecl:
		if d.Tok != token.TYPE {
			return 0
		}
		for _, spec := range d.Specs {
			if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == name {
				return span(ts)
			}
		}
	}
	return 0
}

// repoRoot is the module root, found from this source file's path as the
// compiler recorded it, so table1 runs from any working directory as long
// as the source tree is where the binary was built from.
func repoRoot() (string, error) {
	_, file, _, _ := runtime.Caller(0)
	if !filepath.IsAbs(file) {
		return "", fmt.Errorf("experiments: table1 counts lines of the source tree, and this binary, built with -trimpath, does not know where it is")
	}
	root := filepath.Join(filepath.Dir(file), "..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", fmt.Errorf("experiments: table1 counts lines of the source tree, which is not where this binary was built: %w", err)
	}
	return root, nil
}

// runTable2 prints the AWS inter-region bandwidth matrix used to emulate
// WAN links.
func runTable2(Profile) (*Outcome, error) {
	cols := append([]string{"(Mbps)"}, abbrevRegions()...)
	t := report.NewTable("Table 2: measured bandwidth between AWS regions", cols...)
	for i, row := range env.Table2 {
		cells := []any{env.Table2Regions[i]}
		for j, v := range row {
			if i == j {
				cells = append(cells, "-")
			} else {
				cells = append(cells, int(v))
			}
		}
		t.AddRow(cells...)
	}
	return &Outcome{Text: t.String(),
		Notes: []string{"Instantiated as the 'Table2 WAN' environment (simnet.FromMatrix)."}}, nil
}

func abbrevRegions() []string {
	out := make([]string, len(env.Table2Regions))
	for i, r := range env.Table2Regions {
		out[i] = r[:1]
	}
	out[4], out[5] = "S1", "S2"
	return out
}

// runTable3 prints every emulated environment with its compute and network
// settings at t=0 (the dynamic environments also list their later phases).
func runTable3(Profile) (*Outcome, error) {
	t := report.NewTable("Table 3: emulated micro-cloud environments",
		"Environment", "Computation (capacity units)", "Network (Mbps egress)")
	for _, name := range env.Names() {
		e, err := env.Get(name, 1)
		if err != nil {
			return nil, err
		}
		comp := ""
		net := ""
		for i := 0; i < e.N; i++ {
			if i > 0 {
				comp += "/"
				net += "/"
			}
			comp += fmt.Sprintf("%g", e.Computes[i].Capacity.At(0))
			bw, _ := e.Network.BandwidthAt(i, (i+1)%e.N, 0)
			net += fmt.Sprintf("%g", bw)
		}
		label := name
		if e.GPU {
			label += " (GPU)"
		}
		t.AddRow(label, comp, net)
	}
	return &Outcome{Text: t.String(),
		Notes: []string{
			"Capacity units are CPU cores; one GPU = 30 units (p2.8xlarge = 240).",
			"Dynamic SYS A/B change compute and network at t=500s and t=1000s.",
		}}, nil
}

package dlion

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dlion/internal/obs"
)

// Docs-consistency gate (runs under `make test`, hence `make check` and CI):
// the operational docs promise commands and metric names; this file proves
// the promises against the Makefile and the source tree, so a renamed
// target or metric fails tier-1 instead of rotting in prose. WIRE.md has
// its own coverage test next to the codec (internal/wire/doc_test.go).

// makeTargetRef matches "make <target>" references in prose and shell
// blocks (an optional VAR=... prefix is already consumed by the word
// boundary).
var makeTargetRef = regexp.MustCompile(`\bmake ([a-z][a-z0-9-]*)`)

func TestDocsMakeTargetsExist(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, line := range strings.Split(string(mk), "\n") {
		if m := regexp.MustCompile(`^([a-z][a-z0-9-]*):`).FindStringSubmatch(line); m != nil {
			targets[m[1]] = true
		}
	}
	if len(targets) == 0 {
		t.Fatal("no targets parsed from Makefile")
	}
	for _, doc := range []string{"README.md", "TESTING.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range makeTargetRef.FindAllStringSubmatch(string(raw), -1) {
			if !targets[m[1]] {
				t.Errorf("%s references `make %s` but the Makefile has no such target", doc, m[1])
			}
		}
	}
}

// metricRow matches a METRICS.md table row whose first cell is a backticked
// dotted metric name — the registry counters/gauges/histograms and the
// sim-run counters. (Un-dotted names in other tables are JSON field names,
// covered by the schema tests next to their encoders.)
var metricRow = regexp.MustCompile("(?m)^\\| `([a-z0-9_]+\\.[a-z0-9_.]+)`")

func TestDocsMetricNamesExistInSource(t *testing.T) {
	raw, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range metricRow.FindAllStringSubmatch(string(raw), -1) {
		names = append(names, m[1])
	}
	if len(names) < 10 {
		t.Fatalf("only %d metric names parsed from METRICS.md — the table regex is broken", len(names))
	}

	// Concatenate all non-test Go source; each documented name must appear
	// somewhere a run can actually emit it.
	var src strings.Builder
	for _, root := range []string{"internal", "cmd", "."} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if root == "." && path != "." {
					return filepath.SkipDir // root package files only; internal/ and cmd/ walked above
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			src.Write(b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	code := src.String()
	for _, name := range names {
		if !strings.Contains(code, `"`+name+`"`) {
			t.Errorf("METRICS.md documents %q but no non-test source emits it", name)
		}
	}
}

// TestDocsWorkerReportFields: every JSON field of obs.WorkerReport — the
// per-worker record of sim-run reports, JobMetrics and the dlion.worker
// expvar — is named in METRICS.md, backticked or quoted.
func TestDocsWorkerReportFields(t *testing.T) {
	raw, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	typ := reflect.TypeOf(obs.WorkerReport{})
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if !strings.Contains(doc, "`"+name+"`") && !strings.Contains(doc, `"`+name+`"`) {
			t.Errorf("METRICS.md does not name WorkerReport's JSON field %q", name)
		}
	}
}

var (
	backticked = regexp.MustCompile("`[^`\n]+`")
	// testRef matches a cited test function: a trailing * cites a prefix,
	// and A_{x,y} cites A_x and A_y.
	testRef  = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)\w*(?:\{[\w,]+\}|\*)?`)
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
)

// TestDocsCitedTestsExist: every test, fuzz target, benchmark or example
// DESIGN.md and TESTING.md cite in backticks is defined in some _test.go,
// so a deleted or renamed test cannot leave its claim behind in the docs.
func TestDocsCitedTestsExist(t *testing.T) {
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		b, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllSubmatch(b, -1) {
			defined[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(ref string) bool {
		if prefix, ok := strings.CutSuffix(ref, "*"); ok {
			for name := range defined {
				if strings.HasPrefix(name, prefix) {
					return true
				}
			}
			return false
		}
		return defined[ref]
	}
	cited := 0
	for _, doc := range []string{"DESIGN.md", "TESTING.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range backticked.FindAllString(string(raw), -1) {
			for _, ref := range testRef.FindAllString(span, -1) {
				refs := []string{ref}
				if base, alts, ok := strings.Cut(ref, "{"); ok {
					refs = nil
					for _, alt := range strings.Split(strings.TrimSuffix(alts, "}"), ",") {
						refs = append(refs, base+alt)
					}
				}
				for _, r := range refs {
					cited++
					if !exists(r) {
						t.Errorf("%s cites `%s` but no _test.go defines it", doc, r)
					}
				}
			}
		}
	}
	if cited < 50 {
		t.Fatalf("only %d test citations parsed from DESIGN.md and TESTING.md — the regexes are broken", cited)
	}
}

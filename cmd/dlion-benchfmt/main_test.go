package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"dlion/cmd/internal/cli"
	"dlion/internal/obs"
)

// sample is captured `go test -bench -benchmem -cpu 1` output.
const sample = `goos: linux
goarch: amd64
pkg: dlion/internal/tensor
BenchmarkMatMul128        	    1753	    680391 ns/op	       0 B/op	       0 allocs/op
BenchmarkAddScaled        	 1000000	      1013 ns/op	4043.24 MB/s	       0 B/op	       0 allocs/op
PASS
ok  	dlion/internal/tensor	3.012s
`

// TestRun drives the command in process on a captured benchmark run. The
// baseline has MatMul128 at half the sample's ns/op, so -regress 50 is the
// gate failing (status 1) and -regress 0 only reports the delta.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	out, base := filepath.Join(dir, "out.json"), filepath.Join(dir, "base.json")
	r := obs.NewReport("kernel-bench", "base")
	r.Benchmarks = []obs.BenchResult{{Name: "BenchmarkMatMul128", Runs: 1, NsPerOp: 340000}}
	if err := r.WriteFile(base); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, in string
		args     []string
		want     int
		out, err string // what stdout and stderr must hold
	}{
		{"help", "", []string{"-h"}, 0, "", ""},
		{"bad flag", "", []string{"-no-such-flag"}, 2, "", ""},
		{"no benchmark lines", "PASS\n", []string{"-out", out}, 1, "", "no benchmark lines found"},
		{"sample", sample, []string{"-out", out}, 0, "wrote 2 benchmark results to " + out, ""},
		{"missing baseline", sample, []string{"-out", out, "-baseline", filepath.Join(dir, "none.json")}, 0,
			"wrote 2", "no usable baseline"},
		{"delta", sample, []string{"-out", out, "-baseline", base}, 0, "delta vs baseline \"base\"", ""},
		{"regression gate", sample, []string{"-out", out, "-baseline", base, "-regress", "50"}, 1,
			"BenchmarkMatMul128", "dlion-benchfmt: ns/op regression beyond 50.0%"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdin = strings.NewReader(tc.in)
			var stdout, stderr bytes.Buffer
			got := cli.Run(context.Background(), "dlion-benchfmt", run, tc.args, &stdout, &stderr)
			if got != tc.want || !strings.Contains(stdout.String(), tc.out) || !strings.Contains(stderr.String(), tc.err) {
				t.Fatalf("run(%q) = %d, want %d, stdout holding %q and stderr %q; stdout:\n%s\nstderr:\n%s",
					tc.args, got, tc.want, tc.out, tc.err, stdout.String(), stderr.String())
			}
		})
	}
	if rep, err := obs.ReadFile(out); err != nil || len(rep.Benchmarks) != 2 {
		t.Fatalf("report %v, err %v; want 2 benchmarks", rep, err)
	}
}

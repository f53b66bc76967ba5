package obs

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestReportRoundTrip(t *testing.T) {
	r := NewReport("sim-run", "dlion/Homo A")
	r.Config = map[string]any{"horizon": 300.0, "seed": 7.0}
	r.Workers = []WorkerReport{{ID: 0, Iters: 42,
		Phases: map[string]float64{"compute": 2}, SentBytes: map[string]int64{"gradient": 512}}}
	r.Counters = map[string]int64{"queue.pushed": 9}
	r.Timeline = []TimelinePoint{{T: 0, MeanAcc: 0.1}, {T: 50, MeanAcc: 0.8, StdAcc: 0.02, Loss: 0.5}}
	r.Summary = map[string]float64{"final_acc": 0.8}

	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion || got.Kind != "sim-run" || got.Name != "dlion/Homo A" {
		t.Fatalf("header: %+v", got)
	}
	if len(got.Workers) != 1 || got.Workers[0].Iters != 42 {
		t.Fatalf("workers: %+v", got.Workers)
	}
	if got.Workers[0].Phases["compute"] != 2 || got.Workers[0].SentBytes["gradient"] != 512 {
		t.Fatalf("worker breakdown: %+v", got.Workers[0])
	}
	if got.Counters["queue.pushed"] != 9 || got.Summary["final_acc"] != 0.8 {
		t.Fatalf("counters/summary: %+v", got)
	}
	if len(got.Timeline) != 2 || got.Timeline[1].MeanAcc != 0.8 {
		t.Fatalf("timeline: %+v", got.Timeline)
	}
}

func TestReadFileRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	r := &Report{Schema: "dlion.bench.v999", Kind: "sim-run"}
	f := *r
	if err := (&f).WriteFile(path); err == nil {
		// WriteFile stamps empty schemas only; v999 is preserved
		if _, err := ReadFile(path); err == nil {
			t.Fatal("ReadFile accepted wrong schema version")
		}
	}
}

func TestParseGoBench(t *testing.T) {
	raw := `goos: linux
goarch: amd64
pkg: dlion/internal/tensor
cpu: fake
BenchmarkMatMul-8           	     100	  11780634 ns/op	 182.30 MB/s	     512 B/op	      10 allocs/op
BenchmarkEncode/gradient-8  	    5000	      2500 ns/op
some log line
PASS
ok  	dlion/internal/tensor	2.198s
`
	got, err := ParseGoBench(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d results, want 2: %+v", len(got), got)
	}
	b := got[0]
	if b.Name != "BenchmarkMatMul-8" || b.Runs != 100 || b.NsPerOp != 11780634 {
		t.Fatalf("first: %+v", b)
	}
	if b.MBPerSec != 182.30 || b.BytesPerOp != 512 || b.AllocsPerOp != 10 {
		t.Fatalf("first extras: %+v", b)
	}
	if got[1].Name != "BenchmarkEncode/gradient-8" || got[1].NsPerOp != 2500 {
		t.Fatalf("second: %+v", got[1])
	}
}

// TestParseBenchExtraUnits: custom b.ReportMetric units (the sim engine's
// events/s throughput) must survive parsing into BenchResult.Extra.
func TestParseBenchExtraUnits(t *testing.T) {
	raw := "BenchmarkSimEvents/n=32-8  \t 10\t 5000000 ns/op\t  812345 events/s\n"
	got, err := ParseGoBench(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("parsed %d results, want 1", len(got))
	}
	if got[0].Extra["events/s"] != 812345 {
		t.Fatalf("extra units %+v, want events/s=812345", got[0].Extra)
	}
}

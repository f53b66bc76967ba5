package experiments

import (
	"os"
	"strings"
	"testing"

	"dlion/internal/core"
	"dlion/internal/env"
	"dlion/internal/systems"
)

// tinyProfile shrinks everything so experiment plumbing can be tested in
// seconds; result *shapes* (not magnitudes) are asserted.
func tinyProfile() Profile {
	p := Fast()
	p.DataScale = 0.01 // 600 train samples
	p.Horizon = 60
	p.GPUHorizon = 40
	p.GPUDataScale = 0.0005
	p.EvalPeriod = 30
	p.EvalSubset = 100
	p.TracePeriod = 10
	p.DKTPeriod = 5
	return p
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "table3",
		"fig5", "fig6", "fig7", "fig8", "fig9a", "fig9b", "fig9c",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "fig20", "fig21",
		"ablation-budget", "ablation-dbclamp", "ablation-sync",
		"ablation-selector",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("experiment %s missing from registry", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(IDs()), len(want), IDs())
	}
}

func TestOrdering(t *testing.T) {
	ids := IDs()
	pos := map[string]int{}
	for i, id := range ids {
		pos[id] = i
	}
	if !(pos["table1"] < pos["fig5"] && pos["fig5"] < pos["fig9a"] &&
		pos["fig9a"] < pos["fig11"] && pos["fig11"] < pos["fig21"] &&
		pos["fig21"] < pos["ablation-budget"]) {
		t.Fatalf("ordering wrong: %v", ids)
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig11")
	if err != nil || e.ID != "fig11" {
		t.Fatalf("%v %v", e, err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestTableExperiments(t *testing.T) {
	p := tinyProfile()
	for _, id := range []string{"table1", "table2", "table3"} {
		e, _ := ByID(id)
		o, err := e.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(o.Text) < 50 {
			t.Fatalf("%s: empty output", id)
		}
	}
}

func TestTable1CountsArePlausible(t *testing.T) {
	e, _ := ByID("table1")
	o, err := e.Run(tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	for sys, want := range map[string]float64{"Baseline": 30, "DLion(MaxN)": 40} {
		if got := o.Values["preset/"+sys]; got <= 0 || got > want {
			t.Fatalf("preset LoC for %s = %v (want 0 < n <= %v)", sys, got, want)
		}
	}
}

// table1 finds the source tree from its own source path, not from the
// working directory.
func TestTable1RunsOutsideTheModule(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	e, _ := ByID("table1")
	if _, err := e.Run(tinyProfile()); err != nil {
		t.Fatal(err)
	}
}

func TestFig8ProportionalToBandwidth(t *testing.T) {
	e, _ := ByID("fig8")
	o, err := e.Run(tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := o.Values["fastLinkMean"], o.Values["slowLinkMean"]
	if fast <= slow {
		t.Fatalf("fast link must carry more gradients: %v vs %v", fast, slow)
	}
	ratio := fast / slow
	if ratio < 1.5 || ratio > 4 {
		t.Fatalf("ratio %.2f far from bandwidth ratio 2.5", ratio)
	}
}

func TestFig19LBSFollowsCores(t *testing.T) {
	e, _ := ByID("fig19")
	o, err := e.Run(tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	if o.Values["phase2_w0"] <= o.Values["phase2_w4"] {
		t.Fatalf("24-core worker LBS %v should exceed 4-core worker's %v",
			o.Values["phase2_w0"], o.Values["phase2_w4"])
	}
}

func TestFig20TracksBandwidth(t *testing.T) {
	e, _ := ByID("fig20")
	o, err := e.Run(tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	if o.Values["meanAtHighBW"] <= o.Values["meanAtLowBW"] {
		t.Fatalf("100 Mbps phase should carry more: %v vs %v",
			o.Values["meanAtHighBW"], o.Values["meanAtLowBW"])
	}
}

func TestFig6GBSGrows(t *testing.T) {
	e, _ := ByID("fig6")
	o, err := e.Run(tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	if o.Values["finalGBS"] <= 192 {
		t.Fatalf("auto GBS never grew: %v", o.Values["finalGBS"])
	}
	if o.Values["w0_LBS"] <= o.Values["w4_LBS"] {
		t.Fatalf("24-core worker LBS %v <= 6-core worker %v",
			o.Values["w0_LBS"], o.Values["w4_LBS"])
	}
}

func TestComparisonOutcomeShape(t *testing.T) {
	// run the smallest comparison figure on the tiny profile
	e, _ := ByID("fig16")
	o, err := e.Run(tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(o.Text, "Max10") {
		t.Fatalf("missing system in output:\n%s", o.Text)
	}
	// The comparison is the last row's (Max10's) ratio over every other row.
	if !strings.Contains(o.Text, "Max10 improvement") || strings.Contains(o.Text, "0.00x") {
		t.Fatalf("comparison table does not compare Max10 with each row:\n%s", o.Text)
	}
	if len(o.Values) < 10 {
		t.Fatalf("values missing: %v", o.Values)
	}
	for k, v := range o.Values {
		if v < 0 || v > 1.01 {
			t.Fatalf("accuracy %s=%v out of range", k, v)
		}
	}
}

func TestProfileSystemRescalesDKT(t *testing.T) {
	p := Fast()
	cfg := p.system(sysWithDKT())
	if cfg.DKT.Period != p.DKTPeriod || cfg.DKT.Lambda != p.DKTLambda {
		t.Fatalf("DKT not rescaled: %+v", cfg.DKT)
	}
	// systems without DKT are untouched
	noDKT := sysWithDKT()
	noDKT.DKT.Enabled = false
	noDKT.DKT.Period = 77
	if got := p.system(noDKT); got.DKT.Period != 77 {
		t.Fatal("non-DKT system was modified")
	}
}

func TestClusterConfigWireAmplify(t *testing.T) {
	p := Fast()
	p.WireAmplify = 3
	e := mustEnv(t, "Homo A")
	cfg := p.clusterConfig(sysWithDKT(), e, 0)
	if cfg.Model.WireBytes != 3*(5<<20) {
		t.Fatalf("wire bytes %d", cfg.Model.WireBytes)
	}
}

// --- test helpers ---

func sysWithDKT() core.Config { return systems.DLion() }

func mustEnv(t *testing.T, name string) *env.Env {
	t.Helper()
	e, err := env.Get(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

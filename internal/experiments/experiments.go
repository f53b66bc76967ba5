package experiments

import (
	"fmt"
	"slices"
	"strings"

	"dlion/internal/cluster"
	"dlion/internal/core"
	"dlion/internal/grad"
	"dlion/internal/systems"
)

// Outcome is what one experiment produced: rendered text in the shape of
// the paper's table/figure, headline values for programmatic assertions,
// and notes documenting scale substitutions.
type Outcome struct {
	Text string
	// Values holds headline numbers keyed by short names, e.g.
	// "HeteroSYSA/DLion" -> final accuracy.
	Values map[string]float64
	Notes  []string
}

// addValue records a headline number.
func (o *Outcome) addValue(key string, v float64) {
	if o.Values == nil {
		o.Values = map[string]float64{}
	}
	o.Values[key] = v
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string // "table1", "fig11", ...
	Title string
	Run   func(p Profile) (*Outcome, error)
}

// paper is every experiment in paper order: tables, figures, then the
// ablations. Sixteen are grids over one shared worker, a configuration per
// row and an environment per column (grid.go); the rest render their own
// traces or tables.
var paper = []Experiment{
	{"table1", "Lines of code to emulate systems in DLion", runTable1},
	{"table2", "Measured network bandwidth between AWS regions", runTable2},
	{"table3", "Emulation details for micro-cloud environments", runTable3},
	{"fig5", "Accuracy vs epoch at which GBS doubles", grid{
		title: "Fig 5: accuracy when GBS doubles at a given epoch", head: "GBS doubles at epoch",
		envs: []string{"Homo A"},
		rows: []row{gbsAt("0", 0), gbsAt("1", 1), gbsAt("2", 2), gbsAt("4", 4), gbsAt("never", 1e9)},
	}.run},
	{"fig6", "LBS adaptation under GBS growth (Hetero CPU A)", runFig6},
	{"fig7", "Final accuracy vs Max N's N", grid{
		title: "Fig 7: final accuracy vs N (Max N alone, Homo A)", head: "N",
		envs: []string{"Homo A"},
		rows: []row{maxN(1), maxN(10), maxN(50), maxN(100)},
	}.run},
	{"fig8", "Partial gradient size per link vs link bandwidth", runFig8},
	{"fig9a", "Time to target accuracy vs DKT period", runFig9a},
	{"fig9b", "Accuracy for DKT whom-to-send variants", grid{
		title: "Fig 9b: accuracy for whom-to-send variants (Hetero SYS A)", head: "Variant",
		envs: []string{"Hetero SYS A"},
		rows: []row{
			{"No_DKT", "", dlion(func(c *core.Config) { c.DKT.Enabled = false })},
			{"DKT_Best2worst", "", dlion(func(c *core.Config) { c.DKT.Best2Worst = true })},
			{"DKT_Best2all", "", systems.DLion()},
		},
	}.run},
	{"fig9c", "Accuracy vs DKT merge ratio lambda", grid{
		title: "Fig 9c: accuracy vs DKT merge ratio lambda (Hetero SYS A)", head: "lambda",
		envs: []string{"Hetero SYS A"},
		rows: []row{lambda(0), lambda(0.25), lambda(0.5), lambda(0.75), lambda(1.0)},
		// the row's λ is the profile's too, so the DKT rescale keeps it
		tune: func(p *Profile, r row) { p.DKTLambda = r.sys.DKT.Lambda },
	}.run},
	{"fig11", "System heterogeneity (CPU cluster): accuracy at time budget", grid{
		title: "Fig 11: accuracy after the training budget, CPU cluster", head: "System",
		envs: []string{"Homo A", "Hetero SYS A", "Hetero SYS B"}, rows: sysRows(systems.All()...), compare: true,
	}.run},
	{"fig12", "GPU cluster robustness: accuracy at time budget", grid{
		title: "Fig 12: MobileNetLite accuracy after the training budget, GPU cluster", head: "System",
		envs: []string{"Homo C", "Hetero SYS C"}, rows: sysRows(systems.All()...), compare: true,
	}.run},
	{"fig13", "Heterogeneous compute resources: accuracy at time budget", grid{
		title: "Fig 13: accuracy under heterogeneous compute, homogeneous network", head: "System",
		envs: []string{"Homo A", "Hetero CPU A", "Hetero CPU B"}, rows: sysRows(systems.All()...), compare: true,
	}.run},
	{"fig14", "Dynamic batching / weighted update ablation: time to target", grid{
		title: "Fig 14: seconds to reach 60% accuracy (lower is better)", head: "Variant",
		envs: []string{"Homo A", "Hetero CPU A", "Hetero CPU B"},
		rows: sysRows(systems.DLionNoDBWU(), systems.DLionNoWU(), systems.DLion()),
		// finer evaluation cadence so time-to-accuracy is well resolved
		tune:   func(p *Profile, _ row) { p.EvalPeriod /= 3 },
		metric: timeTo60, format: "%.0f",
		notes: []string{"Times equal to the horizon mean the target was not reached (censored)."},
	}.run},
	{"fig15", "Heterogeneous network resources: accuracy at time budget", grid{
		title: "Fig 15: accuracy under heterogeneous network, homogeneous compute", head: "System",
		envs: []string{"Homo A", "Homo B", "Hetero NET A"}, rows: sysRows(systems.All()...), compare: true,
	}.run},
	{"fig16", "Max10 alone vs existing systems", grid{
		title: "Fig 16: Max10 alone (no other DLion techniques) vs existing systems", head: "System",
		envs:    []string{"Homo A", "Hetero SYS A"},
		rows:    sysRows(systems.Baseline(), systems.Ako(4), systems.Gaia(1), systems.Hop(1, 5), systems.MaxNOnly(10)),
		compare: true,
		notes: []string{
			"Max10 runs the Max N selector with fixed N=10 and no dynamic batching,",
			"link budget, or DKT, isolating the data quality assurance module.",
		},
	}.run},
	{"fig17", "Deviation of model accuracy among workers", grid{
		title: "Fig 17: stddev of final accuracy across workers (lower is better)", head: "System",
		envs: []string{"Hetero SYS B", "Hetero NET B", "Hetero CPU B"}, rows: sysRows(systems.All()...),
		metric: func(tl cluster.Timeline, _ float64) float64 { return tl.FinalDeviation() }, format: "%.4f",
	}.run},
	{"fig18", "Dynamic resource changes: highest accuracy", grid{
		title: "Fig 18: best accuracy under dynamic resources", head: "System",
		envs: []string{"Dynamic SYS A", "Dynamic SYS B"}, rows: sysRows(systems.All()...), dynamic: true,
		metric: func(tl cluster.Timeline, _ float64) float64 { return tl.BestMean() },
	}.run},
	{"fig19", "LBS adaptation under dynamic compute capacity", runFig19},
	{"fig20", "Partial gradient size under dynamic bandwidth", runFig20},
	{"fig21", "Converged accuracy and time to convergence (Homo A)", runFig21},
	// Per-link budget versus always sending N=100 (whole gradients) where
	// the network is the bottleneck (DESIGN.md decision 3).
	{"ablation-budget", "Transmission speed assurance on/off", grid{
		title: "Ablation: per-link budget (Hetero NET A)", head: "Variant",
		envs: []string{"Hetero NET A"},
		rows: []row{
			{"with budget", "with", systems.DLion()},
			{"without budget (always N=100)", "without", dlion(func(c *core.Config) {
				c.Name, c.LinkBudget = "DLion-no-budget", false
			})},
		},
	}.run},
	// The default db clamp against an effectively unclamped weighted update
	// beside an extreme straggler.
	{"ablation-dbclamp", "Dynamic batching weight clamp", grid{
		title: "Ablation: db clamp (Hetero CPU B, one 4-core straggler)", head: "DBClampMax",
		envs: []string{"Hetero CPU B"},
		rows: []row{clamp("2", 2), clamp("8", 8), clamp("unclamped", 1e9)},
	}.run},
	// The data quality assurance module swapped at an equal link budget, the
	// plug-in comparison the paper's related work invites (§6):
	// magnitude-aware selection should beat random-k at equal bytes.
	{"ablation-selector", "Data quality module: MaxN vs TopK vs RandomK", grid{
		title: "Ablation: gradient selection algorithm at equal link budget (Hetero NET A)", head: "Selector",
		envs: []string{"Hetero NET A"},
		rows: []row{
			selecting("MaxN (DLion)", func() grad.Selector { return grad.NewMaxN(100) }),
			selecting("TopK+error feedback", func() grad.Selector { return grad.NewTopK(0.25) }),
			selecting("RandomK (unbiased)", func() grad.Selector { return grad.NewRandomK(0.25, 17) }),
			selecting("Full (ignores budget)", func() grad.Selector { return grad.Full{} }),
		},
	}.run},
	// DLion under the three synch_training strategies of §4.2.
	{"ablation-sync", "DLion synchronization strategy", grid{
		title: "Ablation: DLion synchronization strategy (Hetero SYS A)", head: "Strategy",
		envs: []string{"Hetero SYS A"},
		rows: []row{
			syncing("async", core.SyncConfig{Mode: core.SyncAsync}),
			syncing("bounded (backup=1, staleness=5)", core.SyncConfig{Mode: core.SyncBounded, BackupWorkers: 1, Staleness: 5}),
			syncing("sync", core.SyncConfig{Mode: core.SyncFull}),
		},
	}.run},
}

// All returns every experiment in paper order.
func All() []Experiment { return slices.Clone(paper) }

// ByID resolves one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range paper {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %s)",
		id, strings.Join(IDs(), ", "))
}

// IDs lists all experiment ids in order.
func IDs() []string {
	ids := make([]string, len(paper))
	for i, e := range paper {
		ids[i] = e.ID
	}
	return ids
}

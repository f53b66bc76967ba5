package experiments

import (
	"fmt"

	"dlion/internal/cluster"
	"dlion/internal/core"
	"dlion/internal/env"
	"dlion/internal/grad"
	"dlion/internal/report"
	"dlion/internal/stats"
	"dlion/internal/systems"
)

// grid is an experiment whose table has a row per configuration and a
// column per environment. Each cell is a metric of the row's run in the
// column's environment, averaged over Profile.Runs seeds. A grid of one
// environment is a sweep: its one column is "Final accuracy" and its value
// keys are the row keys; otherwise a value key is "<env>/<row key>".
type grid struct {
	title, head string   // table title and first column header
	envs        []string // env.Get names, one column each
	rows        []row

	// tune adjusts the profile a row runs under.
	tune func(p *Profile, r row)
	// metric reads a cell's number off one run (nil: final mean accuracy);
	// horizon is the run's time budget.
	metric func(tl cluster.Timeline, horizon float64) float64
	format string // cell format ("": %.3f)

	// compare adds ±CI95 to each cell when Runs > 1, and a table of
	// DLion's improvement over every other row.
	compare bool
	// dynamic builds each column as env.Dynamic with phases of horizon/3,
	// the paper's three 500-second phases scaled.
	dynamic bool
	notes   []string
}

// row is one configuration of a grid.
type row struct {
	label string
	key   string // value key ("": label)
	sys   core.Config
}

func (g grid) run(p Profile) (*Outcome, error) {
	cols := append([]string{g.head}, g.envs...)
	if len(g.envs) == 1 {
		cols[1] = "Final accuracy"
	}
	t := report.NewTable(g.title, cols...)
	o := &Outcome{Notes: g.notes}
	format := g.format
	if format == "" {
		format = "%.3f"
	}
	for _, r := range g.rows {
		cells := []any{r.label}
		for _, envName := range g.envs {
			vals, err := g.cell(p, r, envName)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", r.label, envName, err)
			}
			mean := stats.Mean(vals)
			cell := fmt.Sprintf(format, mean)
			if g.compare && len(vals) > 1 {
				cell += fmt.Sprintf("±%.3f", stats.Summarize(vals).CI95)
			}
			cells = append(cells, cell)
			o.addValue(g.key(r, envName), mean)
		}
		t.AddRow(cells...)
	}
	o.Text = t.String()
	if g.compare {
		// the headline the paper reports per figure
		imp := report.NewTable("DLion improvement over each system (accuracy ratio)",
			append([]string{"vs"}, g.envs...)...)
		for _, r := range g.rows {
			if r.sys.Name == "DLion" {
				continue
			}
			cells := []any{r.label}
			for _, envName := range g.envs {
				d, b := o.Values[envName+"/DLion"], o.Values[g.key(r, envName)]
				if b > 0 {
					cells = append(cells, fmt.Sprintf("%.2fx", d/b))
				} else {
					cells = append(cells, "-")
				}
			}
			imp.AddRow(cells...)
		}
		o.Text += "\n" + imp.String()
	}
	if g.dynamic {
		o.Notes = append(o.Notes,
			fmt.Sprintf("Paper phases last 500 s each; here %.0f s each (horizon/3).", p.Horizon/3))
	}
	return o, nil
}

// key is the value key of row r's cell in envName.
func (g grid) key(r row, envName string) string {
	k := r.key
	if k == "" {
		k = r.label
	}
	if len(g.envs) == 1 {
		return k
	}
	return envName + "/" + k
}

// cell runs row r in envName once per seed and returns each run's metric.
// Environments are built per run because compute schedules carry RNG
// state.
func (g grid) cell(p Profile, r row, envName string) ([]float64, error) {
	if g.tune != nil {
		g.tune(&p, r)
	}
	vals := make([]float64, 0, p.Runs)
	for i := 0; i < p.Runs; i++ {
		seed := p.Seed + uint64(i)*31
		var e *env.Env
		var err error
		if g.dynamic {
			e = env.Dynamic(envName[len(envName)-1:], p.Horizon/3, seed)
		} else if e, err = env.Get(envName, seed); err != nil {
			return nil, err
		}
		cfg := p.clusterConfig(r.sys, e, i)
		res, err := cluster.Run(cfg)
		if err != nil {
			return nil, err
		}
		if g.metric == nil {
			vals = append(vals, res.Timeline.FinalMean())
		} else {
			vals = append(vals, g.metric(res.Timeline, cfg.Horizon))
		}
	}
	return vals, nil
}

// timeTo60 is when the mean accuracy first reaches 60 %, censored at the
// horizon.
func timeTo60(tl cluster.Timeline, horizon float64) float64 {
	if t, ok := tl.TimeToAccuracy(0.60); ok {
		return t
	}
	return horizon
}

// sysRows labels and keys each configuration by its name.
func sysRows(cfgs ...core.Config) []row {
	rows := make([]row, len(cfgs))
	for i, c := range cfgs {
		rows[i] = row{label: c.Name, sys: c}
	}
	return rows
}

// dlion is the DLion preset with edit applied.
func dlion(edit func(c *core.Config)) core.Config {
	c := systems.DLion()
	edit(&c)
	return c
}

// gbsAt is the baseline with GBS doubling at epoch.
func gbsAt(label string, epoch float64) row {
	sys := systems.Baseline()
	sys.Name = "GBS@" + label
	sys.Batch.GBS = core.GBSConfig{Mode: "schedule", DoubleAtEpoch: epoch}
	return row{label, "epoch" + label, sys}
}

// maxN is Max N alone at n.
func maxN(n float64) row {
	return row{fmt.Sprintf("%g", n), fmt.Sprintf("N%g", n), systems.MaxNOnly(n)}
}

// lambda is DLion merging DKT at ratio l; λ=0 is a no-op merge, i.e.
// No_DKT.
func lambda(l float64) row {
	return row{fmt.Sprintf("%.2f", l), fmt.Sprintf("lambda%.2f", l), dlion(func(c *core.Config) {
		c.DKT.Enabled = l != 0
		c.DKT.Lambda = l
	})}
}

// clamp is DLion with the dynamic-batching weight clamped at limit.
func clamp(label string, limit float64) row {
	return row{label, "", dlion(func(c *core.Config) { c.Batch.DBClampMax = limit })}
}

// syncing is DLion under the sync strategy s.
func syncing(label string, s core.SyncConfig) row {
	return row{label, "", dlion(func(c *core.Config) { c.Sync = s })}
}

// selecting is DLion with its gradient selector swapped for mk's.
func selecting(label string, mk func() grad.Selector) row {
	return row{label, "", dlion(func(c *core.Config) {
		c.Name, c.NewSelector = "DLion/"+label, mk
	})}
}

package core

import "math"

// The auto controller's growth (§3.2): warm-up adds WarmupAdd per period
// until GBS would pass warmupCapFrac of the training set; speed-up then
// multiplies GBS by speedupFactor (C_speedup) per period and freezes once
// it would pass speedupCapFrac of it.
const (
	speedupFactor  = 2
	warmupCapFrac  = 0.01
	speedupCapFrac = 0.10
)

// gbsController computes the global batch size over time. All workers run
// the same deterministic controller over the (loosely) shared clock, so
// they agree on GBS without extra coordination — the decentralized analog
// of the paper's GBS controller.
type gbsController struct {
	cfg     GBSConfig
	initial int // n·InitialLBS

	cur        int
	lastAdjust float64
	inSpeedup  bool
	frozen     bool
	doubled    bool // schedule mode
}

func newGBSController(cfg GBSConfig, initialGBS int) *gbsController {
	return &gbsController{cfg: cfg, initial: initialGBS, cur: initialGBS}
}

// adopt aligns a joiner's controller with the federation's current GBS
// (carried by the WELCOME) at join time t. In auto mode the adjustment
// clock fast-forwards to the last period boundary so future adjustments
// continue from the adopted value instead of replaying history on top of
// it. Schedule-mode joiners inherit the already-doubled value but track
// their own epoch progress from zero (documented in DESIGN.md §10).
func (g *gbsController) adopt(gbs int, t float64) {
	if gbs <= 0 {
		return
	}
	g.cur = gbs
	if g.cfg.Mode == "auto" && g.cfg.AdjustPeriod > 0 {
		g.lastAdjust = t - math.Mod(t, g.cfg.AdjustPeriod)
		if g.lastAdjust >= g.cfg.WarmupDuration {
			g.inSpeedup = true
		}
	}
}

// GBSAt returns the global batch size at virtual time t given the training
// progress in epochs. It must be called with non-decreasing t.
func (g *gbsController) GBSAt(t float64, epochsDone float64) int {
	switch g.cfg.Mode {
	case "fixed":
		return g.cur
	case "schedule":
		// Figure 5 exploration: double once, at the configured epoch.
		if !g.doubled && epochsDone >= g.cfg.DoubleAtEpoch {
			g.cur *= 2
			g.doubled = true
		}
		return g.cur
	case "auto":
		return g.autoAt(t)
	default:
		return g.cur
	}
}

func (g *gbsController) autoAt(t float64) int {
	if g.frozen {
		return g.cur
	}
	for t-g.lastAdjust >= g.cfg.AdjustPeriod {
		g.lastAdjust += g.cfg.AdjustPeriod
		if !g.inSpeedup && g.lastAdjust >= g.cfg.WarmupDuration {
			g.inSpeedup = true
		}
		if !g.inSpeedup {
			// warm-up: arithmetic progression, capped at 1% of |train|
			add := g.cfg.WarmupAdd
			if add == 0 {
				add = g.initial
			}
			next := g.cur + add
			if cap := int(warmupCapFrac * float64(g.cfg.TrainSetSize)); cap > 0 && next > cap {
				// hold at the warm-up cap until speed-up begins
				continue
			}
			g.cur = next
			continue
		}
		// speed-up: geometric progression, capped at 10% of |train|
		next := g.cur * speedupFactor
		if cap := int(speedupCapFrac * float64(g.cfg.TrainSetSize)); cap > 0 && next > cap {
			g.frozen = true
			return g.cur
		}
		g.cur = next
	}
	return g.cur
}

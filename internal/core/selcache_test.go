package core

import (
	"testing"

	"dlion/internal/grad"
	"dlion/internal/nn"
	"dlion/internal/wire"
)

// uncachedMaxN wraps MaxN without the LinkInvariant marker, forcing the
// exchange path to recompute the selection per peer — the pre-cache
// behavior, used as the oracle below.
type uncachedMaxN struct{ inner *grad.MaxN }

func (u uncachedMaxN) Name() string { return u.inner.Name() }
func (u uncachedMaxN) Select(to int, params []*nn.Param, budget int) []*grad.Selection {
	return u.inner.Select(to, params, budget)
}

// batchCall is one SelectBudgets call a worker made.
type batchCall struct {
	worker  int
	budgets []int
}

// countingMaxN is MaxN logging its SelectBudgets calls. MaxN builds one
// histogram per call whatever the number of budgets (grad's
// TestSelectBudgetsMatchesSelect), so one call per (worker, iteration) is
// one histogram build per gradient.
type countingMaxN struct {
	*grad.MaxN
	worker int
	log    *[]batchCall
}

func (c countingMaxN) SelectBudgets(params []*nn.Param, budgets []int, out [][]*grad.Selection) {
	*c.log = append(*c.log, batchCall{c.worker, append([]int(nil), budgets...)})
	c.MaxN.SelectBudgets(params, budgets, out)
}

// TestSelectionCacheSharesAndMatchesUncached pins the per-iteration
// selection cache: with a LinkInvariant selector, every gradient message of
// one (sender, iteration, link budget) shares one Selection set (computed
// once), and the payloads are bit-identical to a run whose selector
// recomputes per peer. On equal-bandwidth links that is one set per
// iteration; on a two-tier network (workers {0, 1} and {2, 3} on a LAN, a
// slower WAN between them) every iteration has two budgets, and the worker
// asks its selector once for both, so MaxN builds one histogram per
// gradient.
func TestSelectionCacheSharesAndMatchesUncached(t *testing.T) {
	twoTier := func(from, to int) float64 {
		if from/2 == to/2 {
			return 0.4 // Mbps: the LAN tier
		}
		return 0.05 // the WAN tier
	}
	for _, tc := range []struct {
		name    string
		bwOf    func(from, to int) float64
		budgets int // distinct link budgets per (sender, iteration)
	}{
		{"uniform", nil, 1},
		{"two-tier", twoTier, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(newSel func(worker int) grad.Selector) []*wire.Message {
				env := newFakeEnv(4, []float64{1, 1, 1, 1})
				env.bwOf = tc.bwOf
				cfg := asyncConfig()
				next := 0
				cfg.NewSelector = func() grad.Selector {
					next++
					return newSel(next - 1)
				}
				cfg.LinkBudget = true
				ws := buildCluster(t, cfg, env)
				for _, w := range ws {
					w.Start()
				}
				env.eng.Run(6)
				var grads []*wire.Message
				for _, m := range env.sent {
					if m.Type == wire.TypeGradient {
						grads = append(grads, m)
					}
				}
				return grads
			}

			var calls []batchCall
			cached := run(func(w int) grad.Selector {
				return countingMaxN{MaxN: grad.NewMaxN(95), worker: w, log: &calls}
			})
			uncached := run(func(int) grad.Selector { return uncachedMaxN{inner: grad.NewMaxN(95)} })
			checkSamePayloads(t, cached, uncached)
			checkShared(t, cached, tc.budgets)

			// One batched call per (worker, iteration), with the
			// iteration's distinct budgets: the histogram is built once.
			type key struct {
				from int32
				iter int64
			}
			iters := map[key]bool{}
			for _, m := range cached {
				iters[key{m.From, m.Iter}] = true
			}
			if len(calls) != len(iters) {
				t.Fatalf("%d SelectBudgets calls for %d (worker, iteration) exchanges", len(calls), len(iters))
			}
			for _, c := range calls {
				if len(c.budgets) != tc.budgets || (tc.budgets == 2 && c.budgets[0] == c.budgets[1]) {
					t.Fatalf("worker %d asked for budgets %v, want %d distinct", c.worker, c.budgets, tc.budgets)
				}
			}
		})
	}
}

// checkSamePayloads compares two runs' gradient messages payload for
// payload.
func checkSamePayloads(t *testing.T, cached, uncached []*wire.Message) {
	t.Helper()
	if len(cached) == 0 {
		t.Fatal("no gradient messages sent")
	}
	if len(cached) != len(uncached) {
		t.Fatalf("message counts diverge: cached %d, uncached %d", len(cached), len(uncached))
	}
	for k := range cached {
		a, b := cached[k], uncached[k]
		if a.From != b.From || a.To != b.To || a.Iter != b.Iter {
			t.Fatalf("message %d routing diverges: %+v vs %+v", k, a, b)
		}
		if len(a.Selections) != len(b.Selections) {
			t.Fatalf("message %d selection count: %d vs %d", k, len(a.Selections), len(b.Selections))
		}
		for si := range a.Selections {
			sa, sb := a.Selections[si], b.Selections[si]
			if sa.Var != sb.Var || sa.Total != sb.Total {
				t.Fatalf("message %d sel %d header diverges", k, si)
			}
			if len(sa.Dense) != len(sb.Dense) || len(sa.Idx) != len(sb.Idx) {
				t.Fatalf("message %d sel %d shape diverges", k, si)
			}
			for i := range sa.Dense {
				if sa.Dense[i] != sb.Dense[i] {
					t.Fatalf("message %d sel %d dense[%d]: %v vs %v", k, si, i, sa.Dense[i], sb.Dense[i])
				}
			}
			for i := range sa.Idx {
				if sa.Idx[i] != sb.Idx[i] || sa.Val[i] != sb.Val[i] {
					t.Fatalf("message %d sel %d sparse[%d] diverges", k, si, i)
				}
			}
		}
	}
}

// checkShared: all messages of one (sender, iteration) carry one of
// `budgets` Selection sets, one per link budget, and the sets differ in
// size when there are two.
func checkShared(t *testing.T, msgs []*wire.Message, budgets int) {
	t.Helper()
	type key struct {
		from int32
		iter int64
	}
	sets := map[key]map[*grad.Selection]int{}
	shared := false
	for _, m := range msgs {
		if len(m.Selections) == 0 {
			continue
		}
		k := key{m.From, m.Iter}
		_, seen := sets[k][m.Selections[0]]
		shared = shared || seen
		if sets[k] == nil {
			sets[k] = map[*grad.Selection]int{}
		}
		sets[k][m.Selections[0]] = grad.TotalCount(m.Selections)
	}
	if !shared {
		t.Fatal("no two links of one iteration exercised the cache")
	}
	for k, s := range sets {
		if len(s) != budgets {
			t.Fatalf("sender %d iter %d: %d distinct selection sets across its links, want %d",
				k.from, k.iter, len(s), budgets)
		}
		if budgets == 2 {
			var counts []int
			for _, c := range s {
				counts = append(counts, c)
			}
			if counts[0] == counts[1] {
				t.Fatalf("sender %d iter %d: both tiers sent %d values", k.from, k.iter, counts[0])
			}
		}
	}
}

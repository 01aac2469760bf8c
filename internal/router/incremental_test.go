package router

import (
	"context"
	"math"
	"slices"
	"testing"
)

// metricsEqual compares every deterministic field of two Metrics
// (Walltime is wall-clock and excluded).
func metricsEqual(a, b Metrics) bool {
	return a.WS == b.WS && a.TNS == b.TNS && a.ACE4 == b.ACE4 &&
		a.WLm == b.WLm && a.Vias == b.Vias && a.Overflow == b.Overflow &&
		a.Objective == b.Objective &&
		a.NetsSolved == b.NetsSolved && a.NetsSkipped == b.NetsSkipped &&
		slices.Equal(a.SolvedPerWave, b.SolvedPerWave) &&
		slices.Equal(a.SkippedPerWave, b.SkippedPerWave) &&
		slices.Equal(a.DeltaSegsPerWave, b.DeltaSegsPerWave)
}

// At the default tolerance the scheduler must actually skip work after
// wave 0 and still land within the documented band of the full run.
func TestIncrementalSkipsAndStaysClose(t *testing.T) {
	chip := tinyChip(t, 0, 0.004)
	opt := DefaultOptions()
	opt.Threads = 2
	full, err := Route(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Incremental = true
	inc, err := Route(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	m := inc.Metrics
	if m.NetsSkipped == 0 {
		t.Fatalf("incremental run skipped nothing: %+v", m)
	}
	if m.SolvedPerWave[0] != len(chip.NL.Nets) || m.SkippedPerWave[0] != 0 {
		t.Fatalf("wave 0 must solve everything: solved %v skipped %v", m.SolvedPerWave, m.SkippedPerWave)
	}
	for w, s := range m.SolvedPerWave {
		if s+m.SkippedPerWave[w] != len(chip.NL.Nets) {
			t.Fatalf("wave %d: solved %d + skipped %d != %d nets", w, s, m.SkippedPerWave[w], len(chip.NL.Nets))
		}
	}
	if m.NetsSolved+m.NetsSkipped != int64(opt.Waves*len(chip.NL.Nets)) {
		t.Fatalf("counter totals inconsistent: %+v", m)
	}
	// The incremental run may be better (it converges more smoothly) but
	// must not be worse than the documented 1% band on the objective.
	if m.Objective > full.Metrics.Objective*1.01 {
		t.Fatalf("objective degraded beyond 1%%: inc %v full %v", m.Objective, full.Metrics.Objective)
	}
	if math.Abs(m.WLm-full.Metrics.WLm) > 0.02*full.Metrics.WLm {
		t.Fatalf("wirelength drifted: inc %v full %v", m.WLm, full.Metrics.WLm)
	}
}

// The dirty-net schedule, like the rest of the router, must not depend
// on the worker count.
func TestIncrementalDeterministicAcrossThreadCounts(t *testing.T) {
	chip := tinyChip(t, 1, 0.0015)
	opt := DefaultOptions()
	opt.Waves = 3
	opt.Incremental = true
	var ref *Result
	for _, threads := range []int{1, 2, 8} {
		opt.Threads = threads
		r, err := Route(chip, CD, opt)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = r
			continue
		}
		if !metricsEqual(ref.Metrics, r.Metrics) {
			t.Fatalf("threads=%d changed results:\nref %+v\ngot %+v", threads, ref.Metrics, r.Metrics)
		}
	}
}

// The work-avoidance counters are reported in non-incremental runs too:
// every net solved, nothing skipped, no deltas tracked.
func TestFullModeCounters(t *testing.T) {
	chip := tinyChip(t, 0, 0.002)
	opt := DefaultOptions()
	opt.Waves = 2
	opt.Threads = 2
	r, err := Route(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	n := len(chip.NL.Nets)
	m := r.Metrics
	if m.NetsSolved != int64(2*n) || m.NetsSkipped != 0 {
		t.Fatalf("full-mode counters: %+v", m)
	}
	if !slices.Equal(m.SolvedPerWave, []int{n, n}) || !slices.Equal(m.SkippedPerWave, []int{0, 0}) ||
		!slices.Equal(m.DeltaSegsPerWave, []int{0, 0}) {
		t.Fatalf("full-mode per-wave counters: %+v", m)
	}
}

// Budget sensitivity is the driver's: under a budget-consuming driver
// (SL, or Portfolio, whose pool holds SL) a budget change alone dirties
// a net and a repaired tree over its budget escalates; under CD, which
// ignores budgets, neither happens.
func TestBudgetDriftFollowsDriver(t *testing.T) {
	chip := tinyChip(t, 0, 0.002)
	for _, tc := range []struct {
		m    Method
		uses bool
	}{{CD, false}, {SL, true}, {Portfolio, true}} {
		opt := DefaultOptions()
		opt.Waves = 1
		opt.Threads = 1
		opt.Incremental = true
		// No repaired cost escalates on congestion: only the budget
		// rule can send a repair to the oracle.
		opt.RepairTol = 1e9
		r, err := newRun(context.Background(), chip, tc.m, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.runWaves(); err != nil {
			t.Fatal(err)
		}
		// Undo the end-of-run timing update, so every net's weights and
		// budgets equal the snapshot its tree was solved under, and pick
		// a net whose first sink has a finite budget and a positive
		// delay.
		pick := -1
		for ni := range r.nets {
			n := &r.nets[ni]
			copy(n.weights, n.snapW)
			copy(n.budgets, n.snapB)
			if pick < 0 && len(n.budgets) > 0 && !math.IsInf(n.budgets[0], 1) && n.delays[0] > 0 {
				pick = ni
			}
		}
		if pick < 0 {
			t.Fatal("no net with a finite budget and a positive delay")
		}
		costs := r.pricer.Costs()
		if work, _ := r.computeDirty(costs); len(work) != 0 {
			t.Fatalf("%v: unchanged inputs dirtied %v", tc.m, work)
		}

		// Drift check: one budget moves by far more than IncrementalTol.
		n := &r.nets[pick]
		n.budgets[0] = 2*n.budgets[0] + 1
		var want []int32
		if tc.uses {
			want = []int32{int32(pick)}
		}
		if work, _ := r.computeDirty(costs); !slices.Equal(work, want) {
			t.Fatalf("%v: budget drift on net %d gave work list %v, want %v", tc.m, pick, work, want)
		}

		// Repair check: without a budget the repair is adopted; with
		// every budget 0 the repaired delays exceed them.
		re := r.workers[0].re
		repair := func(b float64) bool {
			for k := range n.budgets {
				n.budgets[k] = b
			}
			in := buildInstance(chip, pick, n.weights, costs, opt.Seed)
			in.Budgets = n.budgets
			return r.tryRepair(pick, re, in)
		}
		if !repair(math.Inf(1)) {
			t.Fatalf("%v: net %d: repair within budget escalated", tc.m, pick)
		}
		if got := repair(0); got == tc.uses {
			t.Fatalf("%v: net %d: repair over budget adopted = %v", tc.m, pick, got)
		}
	}
}

package costdist

import "testing"

// The dirty-net scheduler's work avoidance, gated on counts rather than
// a clock: on c1@0.02 over 3 waves, the incremental run must re-solve at
// most 70 % of the nets the full run re-solves after wave 0 (1387 vs
// 2338 when this gate was set) and end within the documented 1 % band
// of the full run's objective. The router's own tiny-chip test only
// checks that something is skipped; this chip is large enough for the
// reduction to be the point.
func TestIncrementalSolveReduction(t *testing.T) {
	chip := mkChip(t, 0, 0.02)
	opt := DefaultRouterOptions()
	opt.Waves = 3
	opt.Threads = 2
	full, err := RouteChip(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Incremental = true
	inc, err := RouteChip(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	after0 := func(m RouteMetrics) (n int) {
		for _, s := range m.SolvedPerWave[1:] {
			n += s
		}
		return n
	}
	f, i := after0(full.Metrics), after0(inc.Metrics)
	if 100*i > 70*f {
		t.Fatalf("incremental re-solved %d nets after wave 0, full %d: more than 70 %%", i, f)
	}
	if inc.Metrics.Objective > 1.01*full.Metrics.Objective {
		t.Fatalf("incremental objective %v more than 1 %% above full %v",
			inc.Metrics.Objective, full.Metrics.Objective)
	}
}

package costdist

import (
	"reflect"
	"testing"
)

// RouteChip with a fixed seed must produce identical metrics and trees
// regardless of worker count — for the fixed CD oracle, the exact tier
// and the Portfolio racer, under both reuse policies (Incremental off
// and on). Portfolio pricing and the exact tier's budget gates are pure functions of each instance
// (label budgets, never wall-clock), so the worker count must never
// leak into the result (including the per-oracle solve counters).
func TestRouteChipDeterministicAcrossThreads(t *testing.T) {
	spec := ChipSuite(0.002)[0]
	chip, err := GenerateChip(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{CD, Portfolio, Exact} {
		for _, incremental := range []bool{false, true} {
			opt := DefaultRouterOptions()
			opt.Waves = 3
			opt.Incremental = incremental
			var ref RouteMetrics
			var refTrees []*Tree
			for i, threads := range []int{1, 2, 8} {
				opt.Threads = threads
				res, err := RouteChip(chip, m, opt)
				if err != nil {
					t.Fatal(err)
				}
				mt := res.Metrics
				mt.Walltime = 0 // wall-clock, legitimately varies
				if i == 0 {
					ref = mt
					refTrees = res.Trees
					continue
				}
				if !reflect.DeepEqual(ref, mt) {
					t.Fatalf("%v incremental=%v threads=%d changed results:\nref %+v\ngot %+v",
						m, incremental, threads, ref, mt)
				}
				if !reflect.DeepEqual(refTrees, res.Trees) {
					t.Fatalf("%v incremental=%v threads=%d changed routed trees", m, incremental, threads)
				}
			}
			// The no-skip policy is the same loop with the full work list:
			// it must never report a cache hit.
			if !incremental && ref.NetsSkipped != 0 {
				t.Fatalf("%v no-skip run skipped %d nets", m, ref.NetsSkipped)
			}
			if m == Exact && ref.SolvesByOracle["exact"] != ref.NetsSolved {
				t.Fatalf("fixed exact run charged %v, solved %d nets", ref.SolvesByOracle, ref.NetsSolved)
			}
			if m == Portfolio {
				want := ref.NetsSolved * int64(len(ref.SolvesByOracle))
				var got int64
				for _, c := range ref.SolvesByOracle {
					got += c
				}
				if got != want {
					t.Fatalf("portfolio solve counts inconsistent: %v vs %d nets", ref.SolvesByOracle, ref.NetsSolved)
				}
			}
		}
	}
}

package costdist

import (
	"bytes"
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

// Routing draws no random number: the one random choice in the solvers,
// Algorithm 1's representative draw, runs only with §III-D off, and a
// route's CD solves run every §III enhancement. So RouterOptions.Seed
// must change no routed byte under any method, cold with the no-skip
// policy or incremental with the repair rung. grroute has no -seed flag
// because of this; an oracle that draws from Instance.Seed fails here
// and makes the seed a routing input again.
func TestRouteIgnoresSeed(t *testing.T) {
	chip, err := GenerateChip(ChipSuite(0.002)[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range MethodNames() {
		m, ok := MethodByName(name)
		if !ok {
			t.Fatalf("MethodNames lists %q, MethodByName refuses it", name)
		}
		for _, incremental := range []bool{false, true} {
			var ref []byte
			for _, seed := range []uint64{1, 2} {
				opt := DefaultRouterOptions()
				opt.Waves = 2
				opt.Seed = seed
				if incremental {
					opt.Incremental = true
					opt.RepairTol = 0.25
				}
				res, err := RouteChip(chip, m, opt)
				if err != nil {
					t.Fatalf("%s incremental=%v seed %d: %v", name, incremental, seed, err)
				}
				blob, err := MarshalRouteResult(chip, res)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = blob
				} else if !bytes.Equal(ref, blob) {
					t.Fatalf("%s incremental=%v: seed %d routes differently from seed 1", name, incremental, seed)
				}
			}
		}
	}
}

package router

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"costdist/internal/chipgen"
	"costdist/internal/grid"
	"costdist/internal/oracle"
)

// chipCosts builds a Costs view of the chip's grid with the given
// multiplier vector.
func chipCosts(chip *chipgen.Chip, mult []float32) *grid.Costs {
	c := grid.NewCosts(chip.G)
	copy(c.Mult, mult)
	return c
}

// Restoring a checkpoint rebaselines drift accounting: the tracker
// reference is the restored multipliers, and every restored tree's
// snapshot cost is its congestion cost repriced under them, bit for bit
// — not the (possibly stale) cost recorded when the net was last solved
// mid-run.
func TestCheckpointRebaselines(t *testing.T) {
	chip := tinyChip(t, 0, 0.002)
	opt := DefaultOptions()
	opt.Waves = 2
	opt.Incremental = true
	_, st, err := RouteCheckpoint(context.Background(), chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Method != "cd" || st.NX != chip.G.NX || st.Layers != len(chip.G.Layers) {
		t.Fatalf("grid signature wrong: %+v", st)
	}
	r, err := newRunFrom(context.Background(), st, chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref := r.tracker.Ref()
	for s := range st.Mult {
		if math.Float32bits(ref[s]) != math.Float32bits(st.Mult[s]) {
			t.Fatalf("seg %d: tracker ref %v != mult %v", s, ref[s], st.Mult[s])
		}
	}
	// Reprice independently under the stored multipliers.
	pricer := chipCosts(chip, st.Mult)
	for ni := range st.Nets {
		ns := &st.Nets[ni]
		if ns.Tree == nil {
			t.Fatalf("net %d has no cached tree after a full run", ni)
		}
		cur := 0.0
		for _, step := range ns.Tree.Steps {
			cur += pricer.ArcCost(step.Arc)
		}
		if got := r.nets[ni].snapCost; math.Float64bits(got) != math.Float64bits(cur) {
			t.Fatalf("net %d: restored snapshot cost %v, repriced %v", ni, got, cur)
		}
	}
}

// The seeded computeDirty pass must return exactly seed ∪ never-solved,
// run no drift checks, and disarm itself for the following wave.
func TestComputeDirtySeedMode(t *testing.T) {
	chip := tinyChip(t, 0, 0.002)
	opt := DefaultOptions()
	opt.Incremental = true
	drv, err := newDriver(CD)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRun(context.Background(), chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	n := len(chip.NL.Nets)
	if n < 4 {
		t.Fatalf("chip too small: %d nets", n)
	}
	// Pretend nets 0 and 1 were solved (restored); 2 is seeded dirty;
	// the rest stay never-solved.
	costs := r.pricer.Costs()
	env := oracle.Env{}
	fake := make(map[int]bool)
	for _, ni := range []int{0, 1} {
		in := buildInstance(chip, ni, r.nets[ni].weights, costs, opt.Seed)
		tr, err := oracle.Solve(drv.fixed, in, &env)
		if err != nil {
			t.Fatal(err)
		}
		r.adopt(ni, tr, r.nets[ni].delays, 1, true)
		fake[ni] = true
	}
	seed := make([]bool, n)
	seed[2] = true
	r.seed = seed
	work, deltaSegs := r.computeDirty(costs)
	if deltaSegs != 0 {
		t.Fatalf("seeded wave reported %d delta segs", deltaSegs)
	}
	if len(work) != n-2 {
		t.Fatalf("seeded wave dirtied %d of %d nets, want %d", len(work), n, n-2)
	}
	for _, ni := range work {
		if fake[int(ni)] && ni != 2 {
			t.Fatalf("restored net %d dirtied by the seed pass", ni)
		}
	}
	// The seed is single-shot: the next pass runs the ordinary rule,
	// under which restored nets with unchanged inputs stay clean.
	work2, _ := r.computeDirty(costs)
	for _, ni := range work2 {
		if ni == 0 || ni == 1 {
			// weights have not drifted (same slices), so 0/1 must stay
			// clean unless their cached cost moved — it has not.
			t.Fatalf("restored net %d dirty on the post-seed wave", ni)
		}
	}
}

// A checkpoint's numbers get the range checks of a run's own state:
// CompatibleWith refuses a multiplier below 1 (the premise of the
// oracles' A* bound), a negative or non-finite weight or delay and a
// negative or NaN budget, naming where it sits, and RouteFrom fails
// instead of warm-starting on it. A +Inf budget stays legal.
func TestCheckpointNumbersRangeChecked(t *testing.T) {
	chip := tinyChip(t, 0, 0.002)
	opt := DefaultOptions()
	opt.Waves = 1
	_, st, err := RouteCheckpoint(context.Background(), chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	ni := len(st.Nets) - 1
	if len(st.Nets[ni].Weights) == 0 {
		t.Fatalf("net %d has no sinks", ni)
	}
	ns := &st.Nets[ni]
	sink := fmt.Sprintf("net %d sink 0 ", ni)
	for _, tc := range []struct {
		name string
		set  func(x float64) (undo func())
		x    float64
		want string // "" = accepted
	}{
		{"mult", setMult(st, 5), math.NaN(), "segment 5 "},
		{"mult", setMult(st, 5), math.Inf(1), "segment 5 "},
		{"mult", setMult(st, 5), -3, "segment 5 "},
		{"mult", setMult(st, 5), 0.5, "segment 5 "},
		{"weight", setFloat(ns.Weights), -5, sink + "has weight -5"},
		{"weight", setFloat(ns.Weights), math.NaN(), sink + "has weight NaN"},
		{"weight", setFloat(ns.Weights), math.Inf(1), sink + "has weight +Inf"},
		{"delay", setFloat(ns.Delays), -1, sink + "has delay -1"},
		{"delay", setFloat(ns.Delays), math.Inf(1), sink + "has delay +Inf"},
		{"budget", setFloat(ns.Budgets), math.NaN(), sink + "has budget NaN"},
		{"budget", setFloat(ns.Budgets), math.Inf(-1), sink + "has budget -Inf"},
		{"budget", setFloat(ns.Budgets), math.Inf(1), ""},
	} {
		undo := tc.set(tc.x)
		err := st.CompatibleWith(chip.G)
		if tc.want == "" {
			if err != nil {
				t.Fatalf("%s %v refused: %v", tc.name, tc.x, err)
			}
		} else {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s %v: CompatibleWith err = %v, want one naming %q", tc.name, tc.x, err, tc.want)
			}
			if _, _, err := RouteFrom(context.Background(), st, chip, CD, opt); err == nil {
				t.Fatalf("%s %v: RouteFrom warm-started", tc.name, tc.x)
			}
		}
		undo()
	}
	if err := st.CompatibleWith(chip.G); err != nil {
		t.Fatalf("restored checkpoint refused: %v", err)
	}
}

// setMult returns a setter of segment s's multiplier in st.
func setMult(st *State, s int) func(float64) func() {
	return func(x float64) func() {
		old := st.Mult[s]
		st.Mult[s] = float32(x)
		return func() { st.Mult[s] = old }
	}
}

// setFloat returns a setter of xs[0].
func setFloat(xs []float64) func(float64) func() {
	return func(x float64) func() {
		old := xs[0]
		xs[0] = x
		return func() { xs[0] = old }
	}
}

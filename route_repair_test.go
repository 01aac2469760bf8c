package costdist

import (
	"bytes"
	"reflect"
	"testing"
)

// Any negative RepairTol must disable the repair rung completely: an
// explicitly negative tolerance and the default (-1) have to produce
// byte-identical results — same trees, same metrics, same wire form —
// at every worker count. This is the compatibility contract that lets
// the existing golden and determinism pins certify the repair-less
// path without regeneration.
func TestRouteChipRepairTolNegativeIdentical(t *testing.T) {
	chip := mkChip(t, 0, 0.002)
	for _, threads := range []int{1, 2, 8} {
		opt := DefaultRouterOptions()
		opt.Waves = 3
		opt.Threads = threads
		opt.Incremental = true
		ref, err := RouteChip(chip, CD, opt) // default RepairTol (-1)
		if err != nil {
			t.Fatal(err)
		}
		opt.RepairTol = -7 // any negative spelling means "off"
		got, err := RouteChip(chip, CD, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Metrics.NetsRepaired != 0 || got.Metrics.RepairEscalated != 0 ||
			got.Metrics.RepairedPerWave != nil || got.Metrics.EscalatedPerWave != nil {
			t.Fatalf("threads=%d: disabled rung reported repair activity: %+v", threads, got.Metrics)
		}
		refBytes, err := MarshalRouteResult(chip, ref)
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := MarshalRouteResult(chip, got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refBytes, gotBytes) {
			t.Fatalf("threads=%d: negative RepairTol diverged from the default wire form", threads)
		}
	}
}

// The repair rung is a pure function of each net's instance and cached
// tree, so enabling it must not make the router worker-count dependent:
// identical metrics and trees at 1, 2 and 8 threads, with the rung
// actually engaging.
func TestRouteChipRepairDeterministicAcrossThreads(t *testing.T) {
	chip := mkChip(t, 0, 0.005)
	opt := DefaultRouterOptions()
	opt.Waves = 3
	opt.Incremental = true
	opt.RepairTol = 0.25
	var ref RouteMetrics
	var refTrees []*Tree
	for i, threads := range []int{1, 2, 8} {
		opt.Threads = threads
		res, err := RouteChip(chip, CD, opt)
		if err != nil {
			t.Fatal(err)
		}
		mt := res.Metrics
		mt.Walltime = 0
		if i == 0 {
			ref = mt
			refTrees = res.Trees
			continue
		}
		if !reflect.DeepEqual(ref, mt) {
			t.Fatalf("threads=%d changed repair-enabled results:\nref %+v\ngot %+v", threads, ref, mt)
		}
		if !reflect.DeepEqual(refTrees, res.Trees) {
			t.Fatalf("threads=%d changed repair-enabled routed trees", threads)
		}
	}
	if ref.NetsRepaired == 0 {
		t.Fatalf("repair rung never engaged: %+v", ref)
	}
	var perWave int64
	for _, n := range ref.RepairedPerWave {
		perWave += int64(n)
	}
	if perWave != ref.NetsRepaired {
		t.Fatalf("per-wave repair rows sum to %d, total %d", perWave, ref.NetsRepaired)
	}
}

// The warm-start three-rung disposition: on a perturbed chip, the
// repair-enabled warm run must absorb at least half of its dirty nets
// on the repair rung, send strictly fewer nets to a full oracle solve
// than the repair-less warm run, and land within a small objective band
// of it — escalation bounds how far a repaired embedding may drift.
func TestWarmStartRepairTier(t *testing.T) {
	chip := mkChip(t, 0, 0.005)
	opt := DefaultRouterOptions()
	opt.Waves = 3
	opt.Threads = 2
	_, st, err := RouteChipCheckpoint(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := MarshalCheckpoint(st)
	if err != nil {
		t.Fatal(err)
	}
	pert, changed, err := PerturbChip(chip, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if changed < 1 {
		t.Fatal("no nets perturbed")
	}
	plain, _, err := RouteChipFrom(st, pert, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	opt.RepairTol = 0.25
	repaired, _, err := RouteChipFrom(st2, pert, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Counts, not a clock: repaired / (repaired + fully solved) ≥ 1/2,
	// i.e. repaired ≥ solved (378 vs 134 when this gate was set).
	if m := repaired.Metrics; m.NetsRepaired == 0 || m.NetsRepaired < m.NetsSolved {
		t.Fatalf("repair rung absorbed %d of %d dirty nets, want at least half",
			m.NetsRepaired, m.NetsRepaired+m.NetsSolved)
	}
	if repaired.Metrics.NetsSolved >= plain.Metrics.NetsSolved {
		t.Fatalf("repair rung saved no full solves: %d vs plain warm %d",
			repaired.Metrics.NetsSolved, plain.Metrics.NetsSolved)
	}
	// One-sided band: repair may improve the objective without limit
	// (re-embedding under current prices often beats a stale replay),
	// but escalation must keep it from ending much worse.
	delta := (repaired.Metrics.Objective - plain.Metrics.Objective) /
		plain.Metrics.Objective
	if delta > 0.05 {
		t.Fatalf("repair-enabled warm objective %.2f%% worse than the plain warm run (%.6g vs %.6g)",
			100*delta, repaired.Metrics.Objective, plain.Metrics.Objective)
	}
	for ni, tr := range repaired.Trees {
		if tr == nil {
			t.Fatalf("net %d has no tree after repair-enabled warm start", ni)
		}
	}
}

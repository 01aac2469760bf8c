package costdist

import (
	"bytes"
	"reflect"
	"testing"
)

// mkChip generates a small suite chip for the warm-start tests.
func mkChip(t *testing.T, idx int, scale float64) *Chip {
	t.Helper()
	spec := ChipSuite(scale)[idx]
	chip, err := GenerateChip(spec)
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

// sameRow compares the deterministic part of two metric rows (Walltime
// and the solve counters, which legitimately differ between a cold and
// a warm run, are excluded).
func sameRow(a, b RouteMetrics) bool {
	return a.WS == b.WS && a.TNS == b.TNS && a.ACE4 == b.ACE4 &&
		a.WLm == b.WLm && a.Vias == b.Vias && a.Overflow == b.Overflow &&
		a.Objective == b.Objective
}

// The zero-perturbation property: warm-starting from a checkpoint onto
// the identical chip must solve zero nets and reproduce the cold run's
// trees and full metric row exactly, for both the full and the
// incremental base engine. This is the contract that makes resubmitted
// identical jobs nearly free.
func TestWarmStartZeroPerturbation(t *testing.T) {
	chip := mkChip(t, 0, 0.002)
	for _, incremental := range []bool{false, true} {
		opt := DefaultRouterOptions()
		opt.Waves = 3
		opt.Threads = 2
		opt.Incremental = incremental
		cold, st, err := RouteChipCheckpoint(chip, CD, opt)
		if err != nil {
			t.Fatal(err)
		}
		warm, st2, err := RouteChipFrom(st, chip, CD, opt)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Metrics.NetsSolved != 0 {
			t.Fatalf("incremental=%v: unperturbed warm start solved %d nets (skipped %d)",
				incremental, warm.Metrics.NetsSolved, warm.Metrics.NetsSkipped)
		}
		wantSkipped := int64(len(chip.NL.Nets) * opt.Waves)
		if warm.Metrics.NetsSkipped != wantSkipped {
			t.Fatalf("incremental=%v: skipped %d nets, want %d", incremental, warm.Metrics.NetsSkipped, wantSkipped)
		}
		if !sameRow(cold.Metrics, warm.Metrics) {
			t.Fatalf("incremental=%v: warm metrics diverged:\ncold %+v\nwarm %+v",
				incremental, cold.Metrics, warm.Metrics)
		}
		if !reflect.DeepEqual(cold.Trees, warm.Trees) {
			t.Fatalf("incremental=%v: warm trees differ from cold trees", incremental)
		}
		// The no-op warm run's own checkpoint must equal its base byte
		// for byte — trees, prices and timing state are all untouched.
		b1, err := MarshalCheckpoint(st)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := MarshalCheckpoint(st2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("incremental=%v: no-op warm start changed the checkpoint", incremental)
		}
	}
}

// MarshalCheckpoint must be byte-stable (marshal → unmarshal → marshal
// reproduces the bytes), and warm-starting from the unmarshaled state
// must be equivalent to warm-starting from the in-memory state.
func TestWarmStartCheckpointRoundTrip(t *testing.T) {
	chip := mkChip(t, 1, 0.002)
	opt := DefaultRouterOptions()
	opt.Waves = 2
	opt.Threads = 2
	_, st, err := RouteChipCheckpoint(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := MarshalCheckpoint(st)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := MarshalCheckpoint(st2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("checkpoint codec is not byte-stable: %d vs %d bytes", len(blob), len(blob2))
	}

	pert, changed, err := PerturbChip(chip, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	if changed < 1 {
		t.Fatalf("perturbation touched %d nets", changed)
	}
	fromMem, _, err := RouteChipFrom(st, pert, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	fromWire, _, err := RouteChipFrom(st2, pert, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	memBytes, err := MarshalRouteResult(pert, fromMem)
	if err != nil {
		t.Fatal(err)
	}
	wireBytes, err := MarshalRouteResult(pert, fromWire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(memBytes, wireBytes) {
		t.Fatal("warm start from unmarshaled checkpoint diverged from in-memory restore")
	}
}

// An ECO perturbation must re-solve only a subset of the chip: fewer
// oracle solves than the cold re-route, at least the changed nets, and
// every net still ends with a tree. The warm result must also be
// independent of the worker count.
func TestWarmStartPerturbed(t *testing.T) {
	chip := mkChip(t, 0, 0.005)
	opt := DefaultRouterOptions()
	opt.Waves = 3
	opt.Threads = 2
	_, st, err := RouteChipCheckpoint(chip, CD, opt)
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
	cold, err := RouteChip(pert, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	warm, _, err := RouteChipFrom(st, pert, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Metrics.NetsSolved >= cold.Metrics.NetsSolved {
		t.Fatalf("warm start saved nothing: %d solves vs cold %d",
			warm.Metrics.NetsSolved, cold.Metrics.NetsSolved)
	}
	if w0 := warm.Metrics.SolvedPerWave[0]; w0 < changed {
		t.Fatalf("first warm wave solved %d nets, %d changed", w0, changed)
	}
	if warm.Metrics.NetsSkipped == 0 {
		t.Fatal("warm start skipped nothing")
	}
	for ni, tr := range warm.Trees {
		if tr == nil {
			t.Fatalf("net %d has no tree after warm start", ni)
		}
	}

	opt.Threads = 4
	warm4, _, err := RouteChipFrom(st, pert, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	a, b := warm.Metrics, warm4.Metrics
	a.Walltime, b.Walltime = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("warm start depends on worker count:\n2 threads %+v\n4 threads %+v", a, b)
	}
}

// Changing the oracle driver between the base run and the warm start
// must distrust every cached tree: the first warm wave re-solves the
// whole chip (the restored prices are still used). A checkpoint naming
// a driver that no longer exists ("auto") decodes and is treated the
// same way.
func TestWarmStartMethodChange(t *testing.T) {
	chip := mkChip(t, 0, 0.002)
	opt := DefaultRouterOptions()
	opt.Waves = 2
	_, st, err := RouteChipCheckpoint(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	warm, _, err := RouteChipFrom(st, chip, SL, opt)
	if err != nil {
		t.Fatal(err)
	}
	if w0 := warm.Metrics.SolvedPerWave[0]; w0 != len(chip.NL.Nets) {
		t.Fatalf("method change: first wave solved %d of %d nets", w0, len(chip.NL.Nets))
	}

	st.Method = "auto"
	blob, err := MarshalCheckpoint(st)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = UnmarshalCheckpoint(blob); err != nil {
		t.Fatal(err)
	}
	if warm, _, err = RouteChipFrom(st, chip, CD, opt); err != nil {
		t.Fatal(err)
	}
	if w0 := warm.Metrics.SolvedPerWave[0]; w0 != len(chip.NL.Nets) {
		t.Fatalf("auto checkpoint: first wave solved %d of %d nets", w0, len(chip.NL.Nets))
	}
}

// A capacity edit (ECO placement blockage) dirties the nets whose
// candidate region overlaps the edit — and only reuses the rest.
func TestWarmStartCapacityEdit(t *testing.T) {
	chip := mkChip(t, 0, 0.005)
	opt := DefaultRouterOptions()
	opt.Waves = 2
	_, st, err := RouteChipCheckpoint(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Regenerate the same chip (same spec, same seed → identical) and
	// carve a capacity blockage into its private grid.
	edited := mkChip(t, 0, 0.005)
	g := edited.G
	if g.Layers[0].Dir.String() == "H" {
		for y := int32(0); y < g.NY/4; y++ {
			for x := int32(0); x < g.NX-1; x++ {
				g.Cap[g.SegH(0, y, x)] *= 0.25
			}
		}
	} else {
		for x := int32(0); x < g.NX/4; x++ {
			for y := int32(0); y < g.NY-1; y++ {
				g.Cap[g.SegV(0, x, y)] *= 0.25
			}
		}
	}
	warm, _, err := RouteChipFrom(st, edited, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	w0 := warm.Metrics.SolvedPerWave[0]
	if w0 == 0 {
		t.Fatal("capacity edit dirtied no nets")
	}
	if w0 >= len(edited.NL.Nets) {
		t.Fatalf("capacity edit dirtied every net (%d)", w0)
	}
}

// Warm-starting onto an incompatible grid must fail loudly, not
// silently produce garbage.
func TestWarmStartGridMismatch(t *testing.T) {
	chip := mkChip(t, 0, 0.002)
	opt := DefaultRouterOptions()
	opt.Waves = 1
	_, st, err := RouteChipCheckpoint(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	other := mkChip(t, 0, 0.004) // bigger netlist → bigger die
	if other.G.NX == chip.G.NX {
		t.Skip("scales produced equal grids")
	}
	if _, _, err := RouteChipFrom(st, other, CD, opt); err == nil {
		t.Fatal("grid mismatch not detected")
	}
}

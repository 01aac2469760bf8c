package cong

import (
	"testing"

	"costdist/internal/geom"
	"costdist/internal/grid"
)

func deltaGraph() *grid.Graph {
	layers := []grid.Layer{
		{Name: "M1", Dir: grid.DirH, Wires: []grid.WireType{{CostPerGCell: 1, DelayPerGCell: 1, CapUse: 1}}, SegCap: 4, ViaCap: 8, ViaCost: 1, ViaDelay: 1, ViaCapUse: 1},
		{Name: "M2", Dir: grid.DirV, Wires: []grid.WireType{{CostPerGCell: 1, DelayPerGCell: 1, CapUse: 1}}, SegCap: 4},
	}
	return grid.New(8, 8, layers, 50)
}

func TestDeltaTrackerQuiescent(t *testing.T) {
	g := deltaGraph()
	tr := NewDeltaTracker(g, 0.05)
	mult := make([]float32, g.NumSegs())
	for i := range mult {
		mult[i] = 1
	}
	rects, n := tr.Update(mult)
	if len(rects) != 0 || n != 0 {
		t.Fatalf("unchanged multipliers reported %d rects, %d segs", len(rects), n)
	}
}

func TestDeltaTrackerToleranceAndReference(t *testing.T) {
	g := deltaGraph()
	tr := NewDeltaTracker(g, 0.10)
	mult := make([]float32, g.NumSegs())
	for i := range mult {
		mult[i] = 1
	}
	s := g.SegH(0, 3, 2) // cells (2,3)-(3,3)

	// Below tolerance: not reported, reference stays.
	mult[s] = 1.05
	if rects, n := tr.Update(mult); len(rects) != 0 || n != 0 {
		t.Fatalf("sub-tolerance change reported: %v, %d", rects, n)
	}
	// Drift accumulates against the untouched reference: 1 → 1.05 → 1.12
	// is below tolerance per step but beyond it in total.
	mult[s] = 1.12
	rects, n := tr.Update(mult)
	if n != 1 {
		t.Fatalf("accumulated drift not reported: %d segs", n)
	}
	want := geom.Rect{X0: 2, Y0: 3, X1: 3, Y1: 3}
	if len(rects) != 1 || rects[0] != want {
		t.Fatalf("rects %v, want [%+v]", rects, want)
	}
	// Reference advanced to 1.12: the same value is now clean.
	if rects, n := tr.Update(mult); len(rects) != 0 || n != 0 {
		t.Fatalf("repeat of reported value changed again: %v, %d", rects, n)
	}
}

func TestDeltaTrackerRunMerging(t *testing.T) {
	g := deltaGraph()
	tr := NewDeltaTracker(g, 0)
	mult := make([]float32, g.NumSegs())
	for i := range mult {
		mult[i] = 1
	}
	// Three consecutive horizontal segments on row 2 touch cells 1..4 —
	// one run. A via at (6,6) adds an isolated cell.
	for x := int32(1); x <= 3; x++ {
		mult[g.SegH(0, 2, x)] = 2
	}
	mult[g.ViaSeg(0, 6, 6)] = 3
	rects, n := tr.Update(mult)
	if n != 4 {
		t.Fatalf("changed segs %d, want 4", n)
	}
	wantRun := geom.Rect{X0: 1, Y0: 2, X1: 4, Y1: 2}
	wantVia := geom.Rect{X0: 6, Y0: 6, X1: 6, Y1: 6}
	if len(rects) != 2 || rects[0] != wantRun || rects[1] != wantVia {
		t.Fatalf("rects %v, want [%+v %+v]", rects, wantRun, wantVia)
	}
}

func TestDiffRects(t *testing.T) {
	g := deltaGraph()
	a := make([]float32, g.NumSegs())
	b := make([]float32, g.NumSegs())
	for i := range a {
		a[i] = 4
		b[i] = 4
	}
	if rects := DiffRects(g, a, b); rects != nil {
		t.Fatalf("identical vectors diffed: %v", rects)
	}
	// A capacity edit over two adjacent horizontal segments and one
	// isolated via.
	b[g.SegH(0, 5, 2)] = 1
	b[g.SegH(0, 5, 3)] = 1
	b[g.ViaSeg(0, 0, 0)] = 0
	rects := DiffRects(g, a, b)
	wantVia := geom.Rect{X0: 0, Y0: 0, X1: 0, Y1: 0}
	wantRun := geom.Rect{X0: 2, Y0: 5, X1: 4, Y1: 5}
	if len(rects) != 2 || rects[0] != wantVia || rects[1] != wantRun {
		t.Fatalf("rects %v, want [%+v %+v]", rects, wantVia, wantRun)
	}
	// Symmetric: argument order only labels old/new.
	rects2 := DiffRects(g, b, a)
	if len(rects2) != 2 || rects2[0] != wantVia || rects2[1] != wantRun {
		t.Fatalf("reversed diff %v, want [%+v %+v]", rects2, wantVia, wantRun)
	}
}

func TestDeltaTrackerRefRoundTrip(t *testing.T) {
	g := deltaGraph()
	tr := NewDeltaTracker(g, 0.05)
	mult := make([]float32, g.NumSegs())
	for i := range mult {
		mult[i] = 1
	}
	mult[g.SegH(0, 1, 1)] = 2
	tr.Update(mult)
	ref := tr.Ref()
	if ref[g.SegH(0, 1, 1)] != 2 {
		t.Fatalf("reference did not advance: %v", ref[g.SegH(0, 1, 1)])
	}
	// A fresh tracker restored from the snapshot treats the same
	// multipliers as clean — the warm-start restore contract.
	tr2 := NewDeltaTracker(g, 0.05)
	tr2.SetRef(ref)
	if rects, n := tr2.Update(mult); len(rects) != 0 || n != 0 {
		t.Fatalf("restored reference reported changes: %v, %d", rects, n)
	}
}

package nets

import (
	"math"
	"testing"

	"costdist/internal/grid"
)

func twoLayerGraph(nx, ny int32) *grid.Graph {
	layers := []grid.Layer{
		{Name: "M1", Dir: grid.DirH, Wires: []grid.WireType{{Name: "w", CostPerGCell: 1, DelayPerGCell: 10, CapUse: 1}}, SegCap: 10, ViaCap: 10, ViaCost: 0.5, ViaDelay: 2, ViaCapUse: 1},
		{Name: "M2", Dir: grid.DirV, Wires: []grid.WireType{{Name: "w", CostPerGCell: 1, DelayPerGCell: 8, CapUse: 1}}, SegCap: 10},
	}
	return grid.New(nx, ny, layers, 50)
}

func mustStep(t *testing.T, g *grid.Graph, u, v grid.V) Step {
	t.Helper()
	var out Step
	found := false
	g.Arcs(u, g.FullWindow(), func(a grid.Arc) bool {
		if a.To == v {
			out = Step{From: u, Arc: a}
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Fatalf("no arc %d->%d", u, v)
	}
	return out
}

func TestEvaluateHandComputed(t *testing.T) {
	g := twoLayerGraph(5, 3)
	in := &Instance{
		G: g, C: grid.NewCosts(g),
		Root: g.At(0, 0, 0),
		Sinks: []Sink{
			{V: g.At(2, 0, 0), W: 2}, // sink A, mid-path
			{V: g.At(4, 0, 0), W: 1}, // sink B, end of path
		},
		DBif: 4, Eta: 0.25,
		Win: g.FullWindow(),
	}
	tr := &RTree{}
	for x := int32(0); x < 4; x++ {
		tr.Steps = append(tr.Steps, mustStep(t, g, g.At(x, 0, 0), g.At(x+1, 0, 0)))
	}
	ev, err := Evaluate(in, tr)
	if err != nil {
		t.Fatal(err)
	}
	// At (2,0,0): groups are {subtree toward B: w=1, hosted sink A: w=2}.
	// A (heavier) takes η·dbif = 1; B side takes (1-η)·dbif = 3.
	wantA := 20.0 + 1.0
	wantB := 20.0 + 3.0 + 20.0
	if math.Abs(ev.SinkDelay[0]-wantA) > 1e-9 || math.Abs(ev.SinkDelay[1]-wantB) > 1e-9 {
		t.Fatalf("sink delays %v want [%v %v]", ev.SinkDelay, wantA, wantB)
	}
	if math.Abs(ev.CongCost-4) > 1e-9 {
		t.Fatalf("cong cost %v", ev.CongCost)
	}
	wantDelayCost := 2*wantA + 1*wantB
	if math.Abs(ev.DelayCost-wantDelayCost) > 1e-9 {
		t.Fatalf("delay cost %v want %v", ev.DelayCost, wantDelayCost)
	}
	if math.Abs(ev.Total-(4+wantDelayCost)) > 1e-9 {
		t.Fatalf("total %v", ev.Total)
	}
	if ev.WireSteps != 4 || ev.Vias != 0 || ev.TrackGCells != 4 {
		t.Fatalf("counts: %+v", ev)
	}
}

func TestEvaluateNoBif(t *testing.T) {
	// dbif = 0: delays are pure edge sums.
	g := twoLayerGraph(4, 4)
	in := &Instance{
		G: g, C: grid.NewCosts(g),
		Root:  g.At(0, 0, 0),
		Sinks: []Sink{{V: g.At(2, 2, 0), W: 1}},
		Win:   g.FullWindow(),
	}
	tr := &RTree{Steps: []Step{
		mustStep(t, g, g.At(0, 0, 0), g.At(1, 0, 0)),
		mustStep(t, g, g.At(1, 0, 0), g.At(2, 0, 0)),
		mustStep(t, g, g.At(2, 0, 0), g.At(2, 0, 1)), // via up
		mustStep(t, g, g.At(2, 0, 1), g.At(2, 1, 1)),
		mustStep(t, g, g.At(2, 1, 1), g.At(2, 2, 1)),
		mustStep(t, g, g.At(2, 2, 1), g.At(2, 2, 0)), // via down
	}}
	ev, err := Evaluate(in, tr)
	if err != nil {
		t.Fatal(err)
	}
	want := 10.0 + 10 + 2 + 8 + 8 + 2
	if math.Abs(ev.SinkDelay[0]-want) > 1e-9 {
		t.Fatalf("delay %v want %v", ev.SinkDelay[0], want)
	}
	if ev.Vias != 2 || ev.WireSteps != 4 {
		t.Fatalf("counts %+v", ev)
	}
	wantCost := 4.0 + 2*0.5
	if math.Abs(ev.CongCost-wantCost) > 1e-9 {
		t.Fatalf("cong %v want %v", ev.CongCost, wantCost)
	}
}

func TestEvaluateCongestionMultiplier(t *testing.T) {
	g := twoLayerGraph(4, 4)
	c := grid.NewCosts(g)
	in := &Instance{
		G: g, C: c,
		Root:  g.At(0, 0, 0),
		Sinks: []Sink{{V: g.At(1, 0, 0), W: 1}},
		Win:   g.FullWindow(),
	}
	st := mustStep(t, g, g.At(0, 0, 0), g.At(1, 0, 0))
	c.Mult[st.Arc.Seg] = 5
	ev, err := Evaluate(in, &RTree{Steps: []Step{st}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.CongCost-5) > 1e-9 {
		t.Fatalf("cong cost with multiplier %v", ev.CongCost)
	}
}

func TestEvaluateErrors(t *testing.T) {
	g := twoLayerGraph(4, 4)
	in := &Instance{
		G: g, C: grid.NewCosts(g),
		Root:  g.At(0, 0, 0),
		Sinks: []Sink{{V: g.At(3, 0, 0), W: 1}},
		Win:   g.FullWindow(),
	}
	// Sink not covered.
	tr := &RTree{Steps: []Step{mustStep(t, g, g.At(0, 0, 0), g.At(1, 0, 0))}}
	if _, err := Evaluate(in, tr); err == nil {
		t.Fatal("uncovered sink accepted")
	}
	// Duplicate edge.
	tr = &RTree{Steps: []Step{
		mustStep(t, g, g.At(0, 0, 0), g.At(1, 0, 0)),
		mustStep(t, g, g.At(1, 0, 0), g.At(0, 0, 0)),
	}}
	if _, err := Evaluate(in, tr); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	// Disconnected component.
	tr = &RTree{Steps: []Step{
		mustStep(t, g, g.At(0, 0, 0), g.At(1, 0, 0)),
		mustStep(t, g, g.At(2, 0, 0), g.At(3, 0, 0)),
	}}
	if _, err := Evaluate(in, tr); err == nil {
		t.Fatal("disconnected tree accepted")
	}
	// A two-cycle beside a stray edge: three steps over four vertices, a
	// tree's edge count.
	tr = &RTree{Steps: []Step{
		mustStep(t, g, g.At(0, 0, 0), g.At(1, 0, 0)),
		mustStep(t, g, g.At(1, 0, 0), g.At(0, 0, 0)),
		mustStep(t, g, g.At(2, 0, 0), g.At(3, 0, 0)),
	}}
	if _, err := Evaluate(in, tr); err == nil {
		t.Fatal("two-cycle with a tree's edge count accepted")
	}
	// A tree over the sink that the root is no vertex of.
	tr = &RTree{Steps: []Step{
		mustStep(t, g, g.At(1, 0, 0), g.At(2, 0, 0)),
		mustStep(t, g, g.At(2, 0, 0), g.At(3, 0, 0)),
	}}
	if _, err := Evaluate(in, tr); err == nil {
		t.Fatal("tree that misses the root accepted")
	}
}

func TestEvaluateSinkAtRoot(t *testing.T) {
	g := twoLayerGraph(4, 4)
	in := &Instance{
		G: g, C: grid.NewCosts(g),
		Root: g.At(0, 0, 0),
		Sinks: []Sink{
			{V: g.At(0, 0, 0), W: 3}, // degenerate: sink at root position
			{V: g.At(1, 0, 0), W: 1},
		},
		DBif: 2, Eta: 0.25,
		Win: g.FullWindow(),
	}
	tr := &RTree{Steps: []Step{mustStep(t, g, g.At(0, 0, 0), g.At(1, 0, 0))}}
	ev, err := Evaluate(in, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Root vertex: groups {child subtree w=1, hosted sink w=3}: sink at
	// root gets η share (heavier), the path side gets 1-η.
	if math.Abs(ev.SinkDelay[0]-0.5) > 1e-9 {
		t.Fatalf("root sink delay %v", ev.SinkDelay[0])
	}
	if math.Abs(ev.SinkDelay[1]-(1.5+10)) > 1e-9 {
		t.Fatalf("other sink delay %v", ev.SinkDelay[1])
	}
}

func TestInstanceHelpers(t *testing.T) {
	g := twoLayerGraph(8, 8)
	in := &Instance{
		G: g, C: grid.NewCosts(g),
		Root:  g.At(1, 1, 0),
		Sinks: []Sink{{V: g.At(6, 2, 0), W: 2}, {V: g.At(3, 7, 1), W: 3}},
	}
	if in.T() != 3 {
		t.Fatalf("T = %d", in.T())
	}
	pts := in.TermPts()
	if len(pts) != 3 || pts[0] != g.Pt(in.Root) {
		t.Fatalf("TermPts %v", pts)
	}
	w := in.DefaultWindow(2)
	for _, p := range pts {
		if !w.Contains(p) {
			t.Fatalf("window %v misses %v", w, p)
		}
	}
	if w.X1 > 7 || w.Y1 > 7 {
		t.Fatal("window not clamped")
	}
}

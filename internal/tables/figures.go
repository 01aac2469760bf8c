package tables

import (
	"fmt"

	"costdist/internal/core"
	"costdist/internal/dly"
	"costdist/internal/grid"
	"costdist/internal/nets"
	"costdist/internal/router"
	"costdist/internal/viz"
)

func figGraph(nx, ny int32, layers int) (*grid.Graph, *grid.Costs) {
	tech := dly.DefaultTech(layers)
	g := grid.New(nx, ny, tech.BuildLayers(), tech.GCellUM)
	return g, grid.NewCosts(g)
}

// Figure1 reproduces the paper's Figure 1: two trees for the same net
// where the topology-first method (PD) places more bifurcations on the
// path to the critical sink than CD does. It returns the two SVGs plus
// the measured bifurcation counts on the critical path.
func Figure1() (pdSVG, cdSVG string, pdBifs, cdBifs int, err error) {
	g, c := figGraph(28, 16, 4)
	// Root at the left; a critical sink far right; noise sinks hanging
	// around the trunk, tempting topology-first methods to chain them.
	in := &nets.Instance{
		G: g, C: c,
		Root: g.At(0, 8, 0),
		DBif: 40, Eta: 0.25,
		Win:  g.FullWindow(),
		Seed: 42,
	}
	in.Sinks = append(in.Sinks, nets.Sink{V: g.At(26, 8, 0), W: 1.0}) // critical
	noise := [][2]int32{{5, 6}, {9, 10}, {13, 6}, {17, 10}, {21, 6}, {24, 10}}
	for _, p := range noise {
		in.Sinks = append(in.Sinks, nets.Sink{V: g.At(p[0], p[1], 0), W: 0.01})
	}
	pdTree, err := router.SolveNet(in, router.PD, nil)
	if err != nil {
		return "", "", 0, 0, err
	}
	cdTree, err := router.SolveNet(in, router.CD, nil)
	if err != nil {
		return "", "", 0, 0, err
	}
	if pdBifs, err = bifurcationsOnPath(in, pdTree, 0); err != nil {
		return "", "", 0, 0, err
	}
	if cdBifs, err = bifurcationsOnPath(in, cdTree, 0); err != nil {
		return "", "", 0, 0, err
	}
	return viz.RenderTree(in, pdTree, 18), viz.RenderTree(in, cdTree, 18), pdBifs, cdBifs, nil
}

// bifurcationsOnPath counts the vertices where the wiring branches on
// the tree path from the root to the given sink, both ends included
// (the quantity Figure 1 is about).
func bifurcationsOnPath(in *nets.Instance, tr *nets.RTree, sink int) (int, error) {
	var r nets.Rooted
	r.Build(in.Root, tr.Steps, in.Sinks)
	v := r.Host[sink]
	if v < 0 {
		return 0, fmt.Errorf("tables: sink %d is not on the tree", sink)
	}
	bifs := 0
	for ; v >= 0; v = r.Parent[v] {
		if r.KidOff[v+1]-r.KidOff[v] >= 2 {
			bifs++
		}
	}
	return bifs, nil
}

// Figure2 illustrates the buffering trade-off behind the flexible λ
// model (paper Figure 2): an optimally spaced repeater chain with a
// branch in the middle; the two variants shift the penalty split between
// the branches (λ = 0.5/0.5 vs η/1−η). Returns one SVG.
func Figure2(eta float64) string {
	tech := dly.DefaultTech(8)
	w := tech.Layers[4].Wires[0]
	spacing := dly.OptimalSpacing(w.RPerUM, w.CPerUM, tech.Buf)
	dbif := tech.Dbif()

	s := viz.New(640, 220)
	draw := func(y float64, lx, ly float64, label string) {
		// Trunk with repeaters every `spacing` (scaled to pixels).
		px := func(um float64) float64 { return 40 + um*560/(8*spacing) }
		s.Line(px(0), y, px(8*spacing), y, "#333", 2)
		for i := 0; i <= 8; i++ {
			s.RectXY(px(float64(i)*spacing)-4, y-4, 8, 8, "#d62728", "none", 1)
		}
		// Branch at the midpoint.
		bx := px(4 * spacing)
		s.Line(bx, y, bx, y+34, "#333", 2)
		s.Circle(bx, y+40, 5, "black", "none")
		s.Text(px(0), y-12, 11, label)
		s.Text(bx+8, y+24, 10, fmt.Sprintf("λ·dbif = %.2f ps / %.2f ps", lx*dbif, ly*dbif))
	}
	draw(60, 0.5, 0.5, fmt.Sprintf("uniform split (η=0.5): both branches take dbif/2 of %.2f ps", dbif))
	draw(150, eta, 1-eta, fmt.Sprintf("flexible split (η=%.2g): critical branch shielded", eta))
	return s.String()
}

// Figure3 reproduces the algorithm walkthrough: five sinks with varying
// delay weights, one frame per iteration showing search disks, the new
// connection and the chosen Steiner vertex. Returns the frames and the
// trace events (tests inspect the events).
func Figure3() ([]string, []core.TraceEvent, error) {
	g, c := figGraph(24, 24, 4)
	in := &nets.Instance{
		G: g, C: c,
		Root: g.At(3, 20, 0),
		DBif: 10, Eta: 0.25,
		Win:  g.FullWindow(),
		Seed: 5,
	}
	// Positions and weights mirroring the figure: a tight pair lower
	// left, a heavy sink center, two sinks to the right.
	in.Sinks = []nets.Sink{
		{V: g.At(6, 6, 0), W: 0.02},
		{V: g.At(9, 4, 0), W: 0.05},
		{V: g.At(12, 12, 0), W: 0.30},
		{V: g.At(19, 7, 0), W: 0.08},
		{V: g.At(20, 16, 0), W: 0.02},
	}
	var events []core.TraceEvent
	_, err := core.SolveTraced(in, core.DefaultOptions(), func(ev core.TraceEvent) {
		events = append(events, ev)
	})
	if err != nil {
		return nil, nil, err
	}
	return viz.RenderTraceFrames(in, events, 20), events, nil
}

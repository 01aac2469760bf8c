package future

import (
	"math"
	"math/rand/v2"
	"testing"

	"costdist/internal/dly"
	"costdist/internal/geom"
	"costdist/internal/grid"
	"costdist/internal/heaps"
)

func newGraph(nx, ny int32, nLayers int) (*grid.Graph, *grid.Costs) {
	tech := dly.DefaultTech(nLayers)
	g := grid.New(nx, ny, tech.BuildLayers(), tech.GCellUM)
	return g, grid.NewCosts(g)
}

// refDistances computes true cost+w·delay distances from every vertex to
// vertex `to` by a reverse Dijkstra (the graph is symmetric).
func refDistances(g *grid.Graph, c *grid.Costs, w float64, to grid.V) map[grid.V]float64 {
	dist := map[grid.V]float64{to: 0}
	var h heaps.Lazy[grid.V]
	h.Push(0, to)
	for h.Len() > 0 {
		k, v := h.Pop()
		if k > dist[v] {
			continue
		}
		g.Arcs(v, g.FullWindow(), func(a grid.Arc) bool {
			nd := k + c.ArcCost(a) + w*c.ArcDelay(a)
			if d, ok := dist[a.To]; !ok || nd < d {
				dist[a.To] = nd
				h.Push(nd, a.To)
			}
			return true
		})
	}
	return dist
}

// RefDistances hands the reference Dijkstra to the external test package
// (admissible_test.go).
var RefDistances = refDistances

// TestEstBoxDistance pins the geometric half of the bound: with unit
// step lengths Est is the L1 distance to the box (0 inside), and unequal
// ones weigh the two offsets separately.
func TestEstBoxDistance(t *testing.T) {
	var tab Targets
	tab.Add(0, geom.Rect{X0: 2, Y0: 2, X1: 4, Y1: 4})
	cases := []struct {
		p      geom.Pt
		dx, dy float64
	}{
		{geom.Pt{X: 3, Y: 3}, 0, 0},
		{geom.Pt{X: 2, Y: 2}, 0, 0},
		{geom.Pt{X: 0, Y: 3}, 2, 0},
		{geom.Pt{X: 6, Y: 6}, 2, 2},
		{geom.Pt{X: 3, Y: 0}, 0, 2},
		{geom.Pt{X: 7, Y: 1}, 3, 1},
	}
	for _, c := range cases {
		if got := tab.Est(-1, c.p.X, c.p.Y, 1, 1); got != c.dx+c.dy {
			t.Fatalf("Est(%v; 1, 1) = %v want %v", c.p, got, c.dx+c.dy)
		}
		if got, want := tab.Est(-1, c.p.X, c.p.Y, 2, 5), 2*c.dx+5*c.dy; got != want {
			t.Fatalf("Est(%v; 2, 5) = %v want %v", c.p, got, want)
		}
	}
}

func TestEstAdmissibleGeometric(t *testing.T) {
	g, c := newGraph(12, 12, 4)
	rng := rand.New(rand.NewPCG(3, 7))
	// Random congestion raises prices; MinMult stays 1 so bounds hold.
	for i := range c.Mult {
		if rng.IntN(4) == 0 {
			c.Mult[i] = 1 + 8*rng.Float32()
		}
	}
	for it := 0; it < 10; it++ {
		target := g.At(rng.Int32N(12), rng.Int32N(12), 0)
		w := rng.Float64() * 2
		if it%2 == 1 {
			w *= 0.05 // where the envelope and the scalar floor differ most
		}
		ref := refDistances(g, c, w, target)
		var tab Targets
		tab.Reset(c)
		tp := g.Pt(target)
		tab.Add(0, geom.Rect{X0: tp.X, Y0: tp.Y, X1: tp.X, Y1: tp.Y})
		ux, uy := tab.Units(w)
		for v := grid.V(0); v < grid.V(g.NumV()); v++ {
			p := g.Pt(v)
			lb := tab.Est(-1, p.X, p.Y, ux, uy)
			if d, ok := ref[v]; ok && lb > d+1e-9 {
				t.Fatalf("inadmissible: Est(%d)=%v > true %v", v, lb, d)
			}
		}
	}
}

func TestNoTargetsMeansZero(t *testing.T) {
	_, c := newGraph(4, 4, 2)
	var tab Targets
	tab.Reset(c)
	ux, uy := tab.Units(5)
	if tab.Est(0, 1, 1, ux, uy) != 0 {
		t.Fatal("an empty table should give 0 bound")
	}
	tab.Add(0, geom.Rect{X0: 3, Y0: 3, X1: 3, Y1: 3})
	if tab.Est(0, 1, 1, ux, uy) != 0 {
		t.Fatal("a table holding only the searching component should give 0 bound")
	}
	if tab.Est(1, 1, 1, ux, uy) <= 0 {
		t.Fatal("another component two steps away should give a positive bound")
	}
}

func TestEstPicksNearestTarget(t *testing.T) {
	_, c := newGraph(30, 30, 2)
	var tab Targets
	tab.Reset(c)
	tab.Add(0, geom.Rect{X0: 20, Y0: 20, X1: 22, Y1: 22})
	tab.Add(1, geom.Rect{X0: 3, Y0: 3, X1: 3, Y1: 3})
	ux, uy := tab.Units(1)
	near := tab.Est(-1, 4, 3, ux, uy)
	far := tab.Est(-1, 10, 10, ux, uy)
	if near >= far {
		t.Fatalf("bound not monotone with distance: near %v far %v", near, far)
	}
	if got := tab.Est(-1, 4, 3, ux, uy); got != ux {
		t.Fatalf("one x-step from the nearest box bounds as %v, want ux = %v", got, ux)
	}
	if got := tab.Est(1, 4, 3, ux, uy); got != 16*ux+17*uy {
		t.Fatalf("with the near box its own, the bound is %v, want the far box's %v", got, 16*ux+17*uy)
	}
}

// TestUnitsIsLowerEnvelope checks Units against its definition on the
// default 8-layer stack: per direction the brute-force minimum over every
// wire type of cost·MinMult + w·delay, which is never below the scalar
// floor MinCostPerGCell + w·MinDelayPerGCell it replaced (the cheapest
// cost and the fastest delay belong to different wires).
func TestUnitsIsLowerEnvelope(t *testing.T) {
	g, c := newGraph(4, 4, 8)
	rng := rand.New(rand.NewPCG(29, 31))
	ws := []float64{0, 1e3}
	for len(ws) < 1000 {
		w := rng.Float64()
		switch len(ws) % 3 {
		case 0:
			w *= 0.1
		case 1:
			w *= 10
		}
		ws = append(ws, w)
	}
	above := 0
	for _, mm := range []float64{1, 0.5} {
		c.MinMult = mm
		var tab Targets
		tab.Reset(c)
		for _, w := range ws {
			wantX, wantY := math.Inf(1), math.Inf(1)
			for li := range g.Layers {
				for _, wt := range g.Layers[li].Wires {
					u := wt.CostPerGCell*mm + w*wt.DelayPerGCell
					if g.Layers[li].Dir == grid.DirH {
						wantX = min(wantX, u)
					} else {
						wantY = min(wantY, u)
					}
				}
			}
			ux, uy := tab.Units(w)
			if ux != wantX || uy != wantY {
				t.Fatalf("MinMult %v: Units(%v) = (%v, %v), brute force (%v, %v)", mm, w, ux, uy, wantX, wantY)
			}
			floor := c.MinCostPerGCell() + w*c.MinDelayPerGCell()
			if ux < floor || uy < floor {
				t.Fatalf("MinMult %v: Units(%v) = (%v, %v) below the scalar floor %v", mm, w, ux, uy, floor)
			}
			if ux > floor*(1+1e-12) && uy > floor*(1+1e-12) {
				above++
			}
		}
	}
	// The point of the envelope: it is strictly tighter in both directions
	// for most weights, not merely equal.
	if above < len(ws) {
		t.Fatalf("envelope strictly above the scalar floor in both directions for only %d of %d (weight, MinMult) pairs", above, 2*len(ws))
	}
}

// TestEstSingleDirectionStack drives a stack whose layers all run
// horizontally: uy is +Inf, and a box in the searching label's own row
// must still bound finitely (0·Inf would be NaN, and a NaN bound drops
// the box from the minimum), while boxes in other rows bound as
// unreachable without hiding a reachable one.
func TestEstSingleDirectionStack(t *testing.T) {
	tech := dly.DefaultTech(4)
	var layers []grid.Layer
	for _, lay := range tech.BuildLayers() {
		if lay.Dir == grid.DirH {
			layers = append(layers, lay)
		}
	}
	if len(layers) != 2 {
		t.Fatalf("fixture: %d horizontal layers, want 2", len(layers))
	}
	g := grid.New(10, 10, layers, tech.GCellUM)
	c := grid.NewCosts(g)
	var tab Targets
	tab.Reset(c)
	ux, uy := tab.Units(0.02)
	if math.IsInf(ux, 0) || !math.IsInf(uy, 1) {
		t.Fatalf("Units = (%v, %v), want finite ux and +Inf uy", ux, uy)
	}

	tab.Add(0, geom.Rect{X0: 1, Y0: 7, X1: 2, Y1: 8}) // other rows
	if got := tab.Est(-1, 5, 3, ux, uy); !math.IsInf(got, 1) {
		t.Fatalf("only an unreachable box: Est = %v, want +Inf", got)
	}
	tab.Add(1, geom.Rect{X0: 8, Y0: 3, X1: 9, Y1: 3}) // same row, 3 steps
	tab.Add(2, geom.Rect{X0: 5, Y0: 0, X1: 5, Y1: 1}) // same column, other rows
	for x := int32(0); x < 10; x++ {
		got := tab.Est(-1, x, 3, ux, uy)
		want := float64(max(8-x, 0)) * ux
		if math.IsNaN(got) || got != want {
			t.Fatalf("Est at (%d, 3) = %v, want %v (the same-row box)", x, got, want)
		}
		if x < 8 && got == 0 {
			t.Fatalf("Est at (%d, 3) = 0 with the nearest reachable box %d steps away", x, 8-x)
		}
	}
	// The bound is admissible on this stack too: never above the true
	// distance to the nearest vertex of the reachable box.
	for x := int32(0); x < 10; x++ {
		ref := refDistances(g, c, 0.02, g.At(x, 3, 1))
		d := math.Inf(1)
		for l := int32(0); l < 2; l++ {
			d = min(d, ref[g.At(8, 3, l)], ref[g.At(9, 3, l)])
		}
		if got := tab.Est(-1, x, 3, ux, uy); got > d+1e-9 {
			t.Fatalf("Est at (%d, 3) = %v exceeds the true distance %v", x, got, d)
		}
	}
}

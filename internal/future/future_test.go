package future

import (
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

func TestRectDist(t *testing.T) {
	r := geom.Rect{X0: 2, Y0: 2, X1: 4, Y1: 4}
	cases := []struct {
		p geom.Pt
		d int64
	}{
		{geom.Pt{X: 3, Y: 3}, 0},
		{geom.Pt{X: 2, Y: 2}, 0},
		{geom.Pt{X: 0, Y: 3}, 2},
		{geom.Pt{X: 6, Y: 6}, 4},
		{geom.Pt{X: 3, Y: 0}, 2},
	}
	for _, c := range cases {
		if got := rectDist(c.p, r); got != c.d {
			t.Fatalf("rectDist(%v) = %d want %d", c.p, got, c.d)
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
		ref := refDistances(g, c, w, target)
		est := New(c)
		est.SetTargets([]geom.Rect{{X0: g.Pt(target).X, Y0: g.Pt(target).Y, X1: g.Pt(target).X, Y1: g.Pt(target).Y}})
		for v := grid.V(0); v < grid.V(g.NumV()); v++ {
			lb := est.Est(g.Pt(v), w)
			if d, ok := ref[v]; ok && lb > d+1e-9 {
				t.Fatalf("inadmissible: Est(%d)=%v > true %v", v, lb, d)
			}
		}
	}
}

func TestEstAdmissibleWithBoxTargetsAndLandmarks(t *testing.T) {
	g, c := newGraph(14, 14, 4)
	rng := rand.New(rand.NewPCG(11, 13))
	for i := range c.Mult {
		if rng.IntN(3) == 0 {
			c.Mult[i] = 1 + 10*rng.Float32()
		}
	}
	win := g.FullWindow()
	for it := 0; it < 5; it++ {
		// Random target boxes; the true distance to a box is the min over
		// all vertices in all layers of that box.
		box := geom.BBox([]geom.Pt{
			{X: rng.Int32N(14), Y: rng.Int32N(14)},
			{X: rng.Int32N(14), Y: rng.Int32N(14)},
		})
		w := rng.Float64()
		// Reference: multi-source reverse Dijkstra from every vertex in box.
		dist := map[grid.V]float64{}
		var h heaps.Lazy[grid.V]
		for l := int32(0); l < 4; l++ {
			for y := box.Y0; y <= box.Y1; y++ {
				for x := box.X0; x <= box.X1; x++ {
					v := g.At(x, y, l)
					dist[v] = 0
					h.Push(0, v)
				}
			}
		}
		for h.Len() > 0 {
			k, v := h.Pop()
			if k > dist[v] {
				continue
			}
			g.Arcs(v, win, func(a grid.Arc) bool {
				nd := k + c.ArcCost(a) + w*c.ArcDelay(a)
				if d, ok := dist[a.To]; !ok || nd < d {
					dist[a.To] = nd
					h.Push(nd, a.To)
				}
				return true
			})
		}
		est := New(c)
		est.AttachLandmarks(NewLandmarks(g, c, win))
		est.SetTargets([]geom.Rect{box})
		for v := grid.V(0); v < grid.V(g.NumV()); v++ {
			lb := est.Est(g.Pt(v), w)
			if d, ok := dist[v]; ok && lb > d+1e-6 {
				t.Fatalf("inadmissible with landmarks: Est(%d)=%v > true %v", v, lb, d)
			}
		}
	}
}

func TestLandmarksSharpenBounds(t *testing.T) {
	// A congestion wall makes true distances exceed the geometric bound;
	// landmarks should notice.
	g, c := newGraph(20, 20, 2)
	for y := int32(0); y < 20; y++ {
		for _, x := range []int32{9} {
			c.Mult[g.SegH(0, y, x)] = 40
		}
	}
	// Wall on layer 1 too (vertical layer has V segments; block crossing
	// by pricing all H segs at x=9 on layer 0 only — layer 1 is vertical
	// so crossing x=9 must use layer 0).
	win := g.FullWindow()
	est := New(c)
	est.SetTargets([]geom.Rect{{X0: 19, Y0: 0, X1: 19, Y1: 19}})
	plain := est.Est(geom.Pt{X: 0, Y: 0}, 0)

	est2 := New(c)
	est2.AttachLandmarks(NewLandmarks(g, c, win))
	est2.SetTargets([]geom.Rect{{X0: 19, Y0: 0, X1: 19, Y1: 19}})
	sharp := est2.Est(geom.Pt{X: 0, Y: 0}, 0)
	if sharp <= plain {
		t.Fatalf("landmarks did not sharpen: %v vs %v", sharp, plain)
	}
}

func TestNoTargetsMeansZero(t *testing.T) {
	_, c := newGraph(4, 4, 2)
	est := New(c)
	if est.Est(geom.Pt{X: 1, Y: 1}, 5) != 0 {
		t.Fatal("no targets should give 0 bound")
	}
}

func TestEstPicksNearestTarget(t *testing.T) {
	_, c := newGraph(30, 30, 2)
	est := New(c)
	est.SetTargets([]geom.Rect{
		{X0: 20, Y0: 20, X1: 22, Y1: 22},
		{X0: 3, Y0: 3, X1: 3, Y1: 3},
	})
	near := est.Est(geom.Pt{X: 4, Y: 3}, 1)
	far := est.Est(geom.Pt{X: 10, Y: 10}, 1)
	if near >= far {
		t.Fatalf("bound not monotone with distance: near %v far %v", near, far)
	}
}

// Package future provides admissible lower bounds ("future costs") for
// goal-oriented (A*) path searches, per paper §III-C: congestion costs
// are lower-bounded geometrically (and optionally sharpened with
// landmark distances, ref [11]), and delays are bounded by L1 distance
// times the fastest layer/wire-type combination.
//
// Targets are component bounding boxes rather than points: with the
// §III-A discounting a search may finish at any vertex of a target
// component, so the bound must underestimate the distance to the whole
// component.
package future

import (
	"costdist/internal/geom"
	"costdist/internal/grid"
	"costdist/internal/heaps"
)

// Estimator computes admissible lower bounds on min over targets of
// cost(v→target) + w·delay(v→target).
type Estimator struct {
	minCost  float64 // per gcell step, under the price floor
	minDelay float64 // per gcell step, fastest layer/wire combination
	targets  []geom.Rect
	lm       *Landmarks
}

// New returns an estimator for the given cost state.
func New(c *grid.Costs) *Estimator {
	return &Estimator{minCost: c.MinCostPerGCell(), minDelay: c.MinDelayPerGCell()}
}

// SetTargets replaces the target set with the given component boxes.
func (e *Estimator) SetTargets(boxes []geom.Rect) {
	e.targets = boxes
	if e.lm != nil {
		e.lm.SetTargets(boxes)
	}
}

// AttachLandmarks enables landmark-based congestion bounds.
func (e *Estimator) AttachLandmarks(lm *Landmarks) { e.lm = lm }

// rectDist returns the L1 distance from p to rectangle r (0 inside).
// Branch-free: it is the inner loop of every future-cost evaluation.
func rectDist(p geom.Pt, r geom.Rect) int64 {
	dx := max(r.X0-p.X, p.X-r.X1, 0)
	dy := max(r.Y0-p.Y, p.Y-r.Y1, 0)
	return int64(dx) + int64(dy)
}

// Est returns an admissible lower bound on the remaining search cost
// from plane position p under delay weight w. With no targets it
// returns 0 (plain Dijkstra).
func (e *Estimator) Est(p geom.Pt, w float64) float64 {
	if len(e.targets) == 0 {
		return 0
	}
	best := -1.0
	for i, r := range e.targets {
		d := float64(rectDist(p, r))
		lb := d * (e.minCost + w*e.minDelay)
		if e.lm != nil {
			if c := e.lm.Bound(p, i); c+d*w*e.minDelay > lb {
				lb = c + d*w*e.minDelay
			}
		}
		if best < 0 || lb < best {
			best = lb
		}
	}
	return best
}

// Landmarks sharpens congestion-cost lower bounds with the classic
// triangle-inequality trick (ref [11]): for a landmark L with
// precomputed cost-metric distances d_L(·), the distance from v to a
// target t is at least |d_L(v) − d_L(t)|. Distances are computed over a
// window of the plane projection of the graph: we project each column
// (x,y) to its cheapest traversal cost, which keeps the bound admissible
// for any layer.
type Landmarks struct {
	win   geom.Rect
	w, h  int32
	dists [][]float64 // per landmark, per plane cell
	// targetRef[k][i]: min over target i's box of dists[k], precomputed
	// when targets are set.
	targetRef [][]float64
}

// NewLandmarks computes landmark distance fields over the window for the
// given costs. Landmark positions are the window corners plus center.
// The plane metric uses, for each step between adjacent cells, the
// cheapest arc cost over all layers and wire types connecting those
// columns (an admissible projection).
func NewLandmarks(g *grid.Graph, c *grid.Costs, win geom.Rect) *Landmarks {
	lm := &Landmarks{win: win, w: win.W(), h: win.H()}
	corners := []geom.Pt{
		{X: win.X0, Y: win.Y0}, {X: win.X1, Y: win.Y0},
		{X: win.X0, Y: win.Y1}, {X: win.X1, Y: win.Y1},
		{X: (win.X0 + win.X1) / 2, Y: (win.Y0 + win.Y1) / 2},
	}
	// Plane step costs: for moving in x at row y (and y at column x) we
	// need the min cost over layers of the corresponding segment arcs.
	for _, pt := range corners {
		lm.dists = append(lm.dists, lm.planeDijkstra(g, c, pt))
	}
	return lm
}

func (lm *Landmarks) idx(p geom.Pt) int32 {
	return (p.Y-lm.win.Y0)*lm.w + (p.X - lm.win.X0)
}

// planeDijkstra runs Dijkstra on the plane projection: cost of step
// (x,y)→(x±1,y) is the min arc cost over all layers/wire types of that
// segment column; likewise for y. Vias are free in the projection
// (admissible: real paths pay them).
func (lm *Landmarks) planeDijkstra(g *grid.Graph, c *grid.Costs, from geom.Pt) []float64 {
	n := lm.w * lm.h
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = heaps.Inf
	}
	var h heaps.Lazy[geom.Pt]
	dist[lm.idx(from)] = 0
	h.Push(0, from)
	stepCost := func(a, b geom.Pt) float64 {
		best := heaps.Inf
		for l := int32(0); l < int32(len(g.Layers)); l++ {
			lay := &g.Layers[l]
			if a.Y == b.Y && lay.Dir == grid.DirH {
				x := a.X
				if b.X < x {
					x = b.X
				}
				seg := g.SegH(l, a.Y, x)
				for wt := range lay.Wires {
					cost := float64(c.Mult[seg]) * lay.Wires[wt].CostPerGCell
					if cost < best {
						best = cost
					}
				}
			}
			if a.X == b.X && lay.Dir == grid.DirV {
				y := a.Y
				if b.Y < y {
					y = b.Y
				}
				seg := g.SegV(l, a.X, y)
				for wt := range lay.Wires {
					cost := float64(c.Mult[seg]) * lay.Wires[wt].CostPerGCell
					if cost < best {
						best = cost
					}
				}
			}
		}
		return best
	}
	for h.Len() > 0 {
		k, p := h.Pop()
		if k > dist[lm.idx(p)] {
			continue
		}
		for _, q := range []geom.Pt{{X: p.X - 1, Y: p.Y}, {X: p.X + 1, Y: p.Y}, {X: p.X, Y: p.Y - 1}, {X: p.X, Y: p.Y + 1}} {
			if !lm.win.Contains(q) {
				continue
			}
			nd := k + stepCost(p, q)
			if nd < dist[lm.idx(q)] {
				dist[lm.idx(q)] = nd
				h.Push(nd, q)
			}
		}
	}
	return dist
}

// SetTargets precomputes per-landmark minima over each target box.
func (lm *Landmarks) SetTargets(boxes []geom.Rect) {
	lm.targetRef = make([][]float64, len(lm.dists))
	for k, d := range lm.dists {
		ref := make([]float64, len(boxes))
		for i, b := range boxes {
			m := heaps.Inf
			for y := max32(b.Y0, lm.win.Y0); y <= min32(b.Y1, lm.win.Y1); y++ {
				for x := max32(b.X0, lm.win.X0); x <= min32(b.X1, lm.win.X1); x++ {
					if v := d[lm.idx(geom.Pt{X: x, Y: y})]; v < m {
						m = v
					}
				}
			}
			if m == heaps.Inf {
				// Box does not intersect the window: no usable bound.
				m = -heaps.Inf
			}
			ref[i] = m
		}
		lm.targetRef[k] = ref
	}
}

// Bound returns the landmark lower bound on the congestion cost from p
// to target i. For every vertex t* in the target box the triangle
// inequality gives d_L(t*) <= d_L(p) + dist(p, t*), hence
// min_t d_L(t) - d_L(p) <= dist(p, t*): taking the max over landmarks
// stays an admissible lower bound on the distance to the whole box.
func (lm *Landmarks) Bound(p geom.Pt, target int) float64 {
	if lm.targetRef == nil || !lm.win.Contains(p) {
		return 0
	}
	best := 0.0
	pi := lm.idx(p)
	for k := range lm.dists {
		dp := lm.dists[k][pi]
		dt := lm.targetRef[k][target]
		if v := dt - dp; v > best {
			best = v
		}
	}
	return best
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

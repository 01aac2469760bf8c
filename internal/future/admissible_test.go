// Admissibility property tests: future costs must never exceed the true
// remaining cost, or goal-oriented searches built on them return
// non-optimal trees while claiming certificates. The mask estimator and
// the live-target table are checked against the Dreyfus–Wagner DP of
// internal/exact on seeded random instances — the DP's LowerBound is the
// true optimum of the completion problem each estimate claims to bound —
// and the table also against brute-force Dijkstra distances.
//
// This file is an external test package: internal/exact imports
// internal/future for its mask-aware bounds, so the cross-check must
// live outside the import cycle.
package future_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"costdist/internal/dly"
	"costdist/internal/exact"
	"costdist/internal/future"
	"costdist/internal/geom"
	"costdist/internal/grid"
	"costdist/internal/nets"
)

// admissInstance builds a seeded random instance with congested (priced)
// segments, so minCost floors and bounding boxes are exercised against
// multipliers > 1.
func admissInstance(rng *rand.Rand, nx int32, k int, dbif float64) *nets.Instance {
	tech := dly.DefaultTech(3)
	g := grid.New(nx, nx, tech.BuildLayers(), tech.GCellUM)
	c := grid.NewCosts(g)
	for i := range c.Mult {
		if rng.IntN(3) == 0 {
			c.Mult[i] = 1 + 4*rng.Float32()
		}
	}
	in := &nets.Instance{
		G: g, C: c,
		Root: g.At(rng.Int32N(nx), rng.Int32N(nx), 0),
		DBif: dbif, Eta: 0.25,
		Win: g.FullWindow(),
	}
	for len(in.Sinks) < k {
		in.Sinks = append(in.Sinks, nets.Sink{
			V: g.At(rng.Int32N(nx), rng.Int32N(nx), 0),
			W: 0.05 + rng.Float64(),
		})
	}
	return in
}

// completionOptimum returns the true optimum of the completion problem
// of state (mask, v): connect v — carrying the combined delay weight of
// mask — and every sink outside mask to the root. Computed by the DP,
// whose LowerBound is exact for this instance.
func completionOptimum(t *testing.T, in *nets.Instance, est *future.MaskEstimator, mask uint32, v grid.V) float64 {
	t.Helper()
	comp := &nets.Instance{
		G: in.G, C: in.C, Root: in.Root,
		DBif: in.DBif, Eta: in.Eta, Win: in.Win,
	}
	for i, sk := range in.Sinks {
		if mask&(uint32(1)<<uint(i)) == 0 {
			comp.Sinks = append(comp.Sinks, sk)
		}
	}
	comp.Sinks = append(comp.Sinks, nets.Sink{V: v, W: est.W(mask)})
	res, err := exact.Solve(comp)
	if err != nil {
		t.Fatalf("completion DP: %v", err)
	}
	return res.LowerBound
}

// TestMaskEstimatorAdmissible drives the property the goal-oriented
// solver's optimality proof rests on: for random reachable states
// (mask, v), Est(mask, pt(v)) never exceeds the completion optimum.
func TestMaskEstimatorAdmissible(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 47))
	for it := 0; it < 12; it++ {
		k := 2 + rng.IntN(3)
		dbif := 0.0
		if it%2 == 1 {
			dbif = rng.Float64() * 25
		}
		in := admissInstance(rng, 6, k, dbif)
		pts := make([]geom.Pt, k)
		ws := make([]float64, k)
		for i, sk := range in.Sinks {
			pts[i] = in.G.Pt(sk.V)
			ws[i] = sk.W
		}
		est, err := future.NewMaskEstimator(in.C, in.G.Pt(in.Root), pts, ws)
		if err != nil {
			t.Fatal(err)
		}
		full := uint32(1)<<uint(k) - 1
		for trial := 0; trial < 6; trial++ {
			mask := 1 + rng.Uint32N(full) // nonzero, possibly full
			v := in.G.At(rng.Int32N(6), rng.Int32N(6), rng.Int32N(3))
			got := est.Est(mask, in.G.Pt(v))
			want := completionOptimum(t, in, est, mask, v)
			if got > want+1e-9*(1+want) {
				t.Fatalf("it %d: Est(%b, %v) = %v exceeds completion optimum %v",
					it, mask, in.G.Pt(v), got, want)
			}
		}
	}
}

// TestEstimatorAdmissible checks the live-target bound against a second
// reference: the true shortest cost-plus-weighted-delay path to a point
// target, computed by the DP on a single-sink instance.
func TestEstimatorAdmissible(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 23))
	for it := 0; it < 12; it++ {
		in := admissInstance(rng, 6, 1, 0)
		target := in.Sinks[0]
		tp := in.G.Pt(target.V)

		var tab future.Targets
		tab.Reset(in.C)
		tab.Add(0, geom.Rect{X0: tp.X, Y0: tp.Y, X1: tp.X, Y1: tp.Y})

		for trial := 0; trial < 6; trial++ {
			v := in.G.At(rng.Int32N(6), rng.Int32N(6), rng.Int32N(3))
			w := rng.Float64() * 2
			if trial%2 == 1 {
				w *= 0.05
			}
			// True remaining cost: single-sink DP from the pseudo-source v
			// (weight w) to a root placed at the target.
			single := &nets.Instance{
				G: in.G, C: in.C, Root: target.V, Win: in.Win,
				Sinks: []nets.Sink{{V: v, W: w}},
			}
			res, err := exact.Solve(single)
			if err != nil {
				t.Fatal(err)
			}
			want := res.LowerBound
			p := in.G.Pt(v)
			ux, uy := tab.Units(w)
			if got := tab.Est(-1, p.X, p.Y, ux, uy); got > want+1e-9*(1+want) {
				t.Fatalf("it %d: Est = %v exceeds true remaining cost %v", it, got, want)
			}
		}
	}
}

// TestMaskEstimatorGoalStateIsZero pins the boundary condition: at the
// goal state (full mask, root) the future cost must be exactly zero, or
// every search key would carry a constant bias.
func TestMaskEstimatorGoalStateIsZero(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 71))
	in := admissInstance(rng, 6, 4, 10)
	pts := make([]geom.Pt, 4)
	ws := make([]float64, 4)
	for i, sk := range in.Sinks {
		pts[i] = in.G.Pt(sk.V)
		ws[i] = sk.W
	}
	est, err := future.NewMaskEstimator(in.C, in.G.Pt(in.Root), pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	if got := est.Est(uint32(1)<<4-1, in.G.Pt(in.Root)); got != 0 {
		t.Fatalf("Est(full, root) = %v, want 0", got)
	}
	if math.Abs(est.W(uint32(1)<<4-1)-(ws[0]+ws[1]+ws[2]+ws[3])) > 1e-12 {
		t.Fatalf("W(full) = %v", est.W(uint32(1)<<4-1))
	}
}

// TestTargetsAdmissibleAcrossMerges drives the live-target table the way
// core.Solve does — point components, then merges that swap two boxes out
// and their union (grown by a connection path) in — and checks after
// every merge that the bound a search of component `self` would get at a
// random vertex never exceeds the true distance to the nearest vertex
// inside any other live component's box. A plain map of boxes is the
// reference model for the table's bookkeeping. Half the weights come from
// [0, 0.1], the range timing-critical sinks carry and where the
// per-direction envelope of Units sits furthest above the scalar floor it
// replaced. The test fails with the bound scaled ×1.2 and with ux and uy
// swapped (both mutations checked by hand when the envelope went in).
func TestTargetsAdmissibleAcrossMerges(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 61))
	const nx = 7
	for it := 0; it < 10; it++ {
		in := admissInstance(rng, nx, 1, 0)
		g, c := in.G, in.C

		var tab future.Targets
		tab.Reset(c)
		model := map[int32]geom.Rect{}
		next := int32(0)
		add := func(box geom.Rect) {
			tab.Add(next, box)
			model[next] = box
			next++
		}
		for k := 2 + rng.IntN(6); k > 0; k-- {
			x, y := rng.Int32N(nx), rng.Int32N(nx)
			add(geom.Rect{X0: x, Y0: y, X1: x, Y1: y})
		}
		liveIDs := func() []int32 {
			var ids []int32
			for id := int32(0); id < next; id++ {
				if _, ok := model[id]; ok {
					ids = append(ids, id)
				}
			}
			return ids
		}

		check := func() {
			if tab.Len() != len(model) {
				t.Fatalf("it %d: table holds %d targets, model %d", it, tab.Len(), len(model))
			}
			ids := liveIDs()
			for trial := 0; trial < 8; trial++ {
				self := ids[rng.IntN(len(ids))]
				v := g.At(rng.Int32N(nx), rng.Int32N(nx), rng.Int32N(3))
				w := rng.Float64() * 2
				if trial%2 == 1 {
					w = rng.Float64() * 0.1
				}
				p := g.Pt(v)
				ux, uy := tab.Units(w)
				got := tab.Est(self, p.X, p.Y, ux, uy)
				// Brute force: the graph is symmetric, so distances to v are
				// distances from v.
				want := math.Inf(1)
				for u, d := range future.RefDistances(g, c, w, v) {
					for id, box := range model {
						if id != self && box.Contains(g.Pt(u)) && d < want {
							want = d
						}
					}
				}
				if len(ids) == 1 {
					want = 0 // no other component: the bound must vanish
				}
				if got > want+1e-9*(1+want) {
					t.Fatalf("it %d: Est(self=%d, %v, w=%v) = %v exceeds true distance %v to the nearest other live box %v",
						it, self, p, w, got, want, model)
				}
			}
		}

		check()
		for len(model) > 1 {
			ids := liveIDs()
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			a, b := ids[0], ids[1]
			box := tab.Remove(a).Union(tab.Remove(b))
			if want := model[a].Union(model[b]); box != want {
				t.Fatalf("it %d: Remove returned boxes with union %v, model says %v", it, box, want)
			}
			delete(model, a)
			delete(model, b)
			// A connection path may leave both boxes.
			for n := rng.IntN(3); n > 0; n-- {
				box = box.Add(geom.Pt{X: rng.Int32N(nx), Y: rng.Int32N(nx)})
			}
			add(box)
			check()
		}
	}
}

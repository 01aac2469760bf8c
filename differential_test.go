package costdist

// Differential test harness: randomized small instances are solved by
// every heuristic (CD, L1, SL, PD) and cross-checked against the exact
// Dreyfus–Wagner-style DP (SolveExact):
//
//   - every heuristic tree's evaluated objective must be ≥ the DP's
//     certified lower bound — nothing beats the optimum;
//   - the CD tree must stay inside the paper's O(log t) approximation
//     guarantee, checked with the conservative band 3 + 2·log₂(t+1);
//   - every tree must pass structural property checks that do not rely
//     on Evaluate's own validation: connectivity from the root to every
//     sink, tree shape (|E| = |V|−1, no duplicate undirected edges), and
//     an independent recomputation of the congestion cost and — for
//     dbif = 0, where no split penalties apply — of every sink delay.

import (
	"math"
	"math/rand/v2"
	"testing"
)

// diffInstance builds a seeded random instance small enough for the
// exact DP: full-grid window over nx×nx×3 vertices with ≤ 4 sinks.
func diffInstance(seed uint64, nx int32, sinks int, dbif float64) *Instance {
	return patchInstance(seed, nx, 0, sinks, dbif)
}

// patchInstance is diffInstance with the terminals drawn inside a random
// spread×spread patch while the window stays the full grid (spread ≤ 0
// or ≥ nx: anywhere). That is the shape of a real global-routing net
// (net bbox ≪ chip window) and the shape the two exact solvers diverge
// on: the DP pays for every window vertex, the goal search prunes to the
// terminal bbox plus its slack radius.
func patchInstance(seed uint64, nx, spread int32, sinks int, dbif float64) *Instance {
	rng := rand.New(rand.NewPCG(seed, 0xD1FF))
	tech := DefaultTech(3)
	g := NewGrid(nx, nx, BuildLayers(tech), tech.GCellUM)
	c := NewCosts(g)
	for i := range c.Mult {
		if rng.IntN(4) == 0 {
			c.Mult[i] = 1 + 3*rng.Float32()
		}
	}
	x0, y0, side := int32(0), int32(0), nx
	if spread > 0 && spread < nx {
		x0, y0, side = rng.Int32N(nx-spread+1), rng.Int32N(nx-spread+1), spread
	}
	at := func() Vertex { return g.At(x0+rng.Int32N(side), y0+rng.Int32N(side), 0) }
	in := &Instance{
		G: g, C: c,
		Root: at(),
		DBif: dbif, Eta: 0.25, Seed: seed,
		Win: g.FullWindow(),
	}
	used := map[Vertex]bool{in.Root: true}
	for len(in.Sinks) < sinks {
		v := at()
		if used[v] {
			continue
		}
		used[v] = true
		w := 0.001 + 0.009*rng.Float64()
		if rng.IntN(4) == 0 {
			w = 0.02 + 0.03*rng.Float64()
		}
		in.Sinks = append(in.Sinks, Sink{V: v, W: w})
	}
	return in
}

// checkTreeProperties validates tree structure without trusting
// Evaluate: connectivity, tree shape and independent cost recomputation.
func checkTreeProperties(t *testing.T, in *Instance, tr *Tree, ev *Evaluation) {
	t.Helper()
	type und struct{ a, b Vertex }
	seen := map[und]bool{}
	adj := map[Vertex][]Step{}
	for _, st := range tr.Steps {
		a, b := st.From, st.Arc.To
		if a > b {
			a, b = b, a
		}
		if seen[und{a, b}] {
			t.Fatalf("duplicate undirected edge %d-%d", a, b)
		}
		seen[und{a, b}] = true
		adj[st.From] = append(adj[st.From], st)
		rev := st.Arc
		rev.To = st.From
		adj[st.Arc.To] = append(adj[st.Arc.To], Step{From: st.Arc.To, Arc: rev})
	}
	// BFS from the root; record arc-delay distance along the way for the
	// dbif = 0 delay recomputation.
	dist := map[Vertex]float64{in.Root: 0}
	queue := []Vertex{in.Root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, st := range adj[v] {
			if _, ok := dist[st.Arc.To]; ok {
				continue
			}
			dist[st.Arc.To] = dist[v] + in.C.ArcDelay(st.Arc)
			queue = append(queue, st.Arc.To)
		}
	}
	if len(tr.Steps) > 0 && len(dist) != len(tr.Steps)+1 {
		t.Fatalf("steps do not form a connected tree: %d vertices reached over %d edges", len(dist), len(tr.Steps))
	}
	for k, s := range in.Sinks {
		if _, ok := dist[s.V]; !ok {
			t.Fatalf("sink %d unreachable from root", k)
		}
	}
	// Independent congestion cost: plain sum over steps.
	cong := 0.0
	for _, st := range tr.Steps {
		cong += in.C.ArcCost(st.Arc)
	}
	if math.Abs(cong-ev.CongCost) > 1e-9*(1+math.Abs(cong)) {
		t.Fatalf("congestion cost mismatch: recomputed %v, Evaluate %v", cong, ev.CongCost)
	}
	wd := 0.0
	for k, s := range in.Sinks {
		wd += s.W * ev.SinkDelay[k]
	}
	if math.Abs(wd-ev.DelayCost) > 1e-9*(1+math.Abs(wd)) {
		t.Fatalf("delay cost mismatch: Σw·delay %v, Evaluate %v", wd, ev.DelayCost)
	}
	if math.Abs(ev.CongCost+ev.DelayCost-ev.Total) > 1e-9*(1+math.Abs(ev.Total)) {
		t.Fatalf("total %v != cong %v + delay %v", ev.Total, ev.CongCost, ev.DelayCost)
	}
	if in.DBif == 0 {
		// No bifurcation penalties: a sink's delay is exactly the summed
		// arc delay of its unique tree path.
		for k, s := range in.Sinks {
			if math.Abs(dist[s.V]-ev.SinkDelay[k]) > 1e-9*(1+dist[s.V]) {
				t.Fatalf("sink %d delay %v, path recomputation %v", k, ev.SinkDelay[k], dist[s.V])
			}
		}
	} else {
		// With penalties the sink delay can only exceed the raw path sum.
		for k, s := range in.Sinks {
			if ev.SinkDelay[k] < dist[s.V]-1e-9 {
				t.Fatalf("sink %d delay %v below raw path delay %v", k, ev.SinkDelay[k], dist[s.V])
			}
		}
	}
}

func TestDifferentialHeuristicsVsExact(t *testing.T) {
	type tc struct {
		seed  uint64
		nx    int32
		sinks int
		dbif  float64
	}
	var cases []tc
	for seed := uint64(1); seed <= 10; seed++ {
		dbif := 0.0
		if seed%2 == 0 {
			dbif = 20 // ps; exercises the bifurcation penalty model
		}
		cases = append(cases, tc{seed: seed, nx: 7 + int32(seed%4), sinks: 2 + int(seed%3), dbif: dbif})
	}
	ropt := DefaultRouterOptions()
	for _, c := range cases {
		in := diffInstance(c.seed, c.nx, c.sinks, c.dbif)
		ex, err := SolveExact(in)
		if err != nil {
			t.Fatalf("seed %d: exact: %v", c.seed, err)
		}
		if ex.Total < ex.LowerBound-1e-9 {
			t.Fatalf("seed %d: exact upper bound %v below its lower bound %v", c.seed, ex.Total, ex.LowerBound)
		}
		exEv, err := Evaluate(in, ex.Tree)
		if err != nil {
			t.Fatalf("seed %d: exact tree invalid: %v", c.seed, err)
		}
		checkTreeProperties(t, in, ex.Tree, exEv)

		t1 := float64(in.T())
		band := 3 + 2*math.Log2(t1+1)
		for _, m := range []Method{CD, L1, SL, PD} {
			var tr *Tree
			if m == CD {
				tr, err = SolveCD(in, DefaultCDOptions())
			} else {
				tr, err = Solve(in, m, ropt)
			}
			if err != nil {
				t.Fatalf("seed %d %v: %v", c.seed, m, err)
			}
			ev, err := Evaluate(in, tr)
			if err != nil {
				t.Fatalf("seed %d %v: evaluate: %v", c.seed, m, err)
			}
			checkTreeProperties(t, in, tr, ev)
			if ev.Total < ex.LowerBound-1e-6 {
				t.Fatalf("seed %d %v: heuristic total %v beats certified lower bound %v",
					c.seed, m, ev.Total, ex.LowerBound)
			}
			if ev.Total > band*ex.LowerBound+1e-9 {
				t.Fatalf("seed %d %v: total %v outside approximation band %.2f×%v",
					c.seed, m, ev.Total, band, ex.LowerBound)
			}
			t.Logf("seed %d %v: total %.4f, exact LB %.4f (ratio %.3f)",
				c.seed, m, ev.Total, ex.LowerBound, ev.Total/ex.LowerBound)
		}
	}
}

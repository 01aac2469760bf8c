package embed

import (
	"math"
	"math/rand/v2"
	"testing"

	"costdist/internal/dly"
	"costdist/internal/geom"
	"costdist/internal/grid"
	"costdist/internal/heaps"
	"costdist/internal/nets"
	"costdist/internal/rsmt"
)

func testInstance(nx, ny int32, nLayers int, sinks []nets.Sink, root grid.V, g *grid.Graph) *nets.Instance {
	in := &nets.Instance{
		G: g, C: grid.NewCosts(g), Root: root, Sinks: sinks,
		DBif: 0, Eta: 0.25,
	}
	in.Win = g.FullWindow()
	return in
}

func newGraph(nx, ny int32, nLayers int) *grid.Graph {
	tech := dly.DefaultTech(nLayers)
	return grid.New(nx, ny, tech.BuildLayers(), tech.GCellUM)
}

// dijkstra computes the exact shortest c+w·d distance between two
// vertices, independently of the embed machinery.
func dijkstra(g *grid.Graph, c *grid.Costs, w float64, from, to grid.V) float64 {
	dist := map[grid.V]float64{from: 0}
	done := map[grid.V]bool{}
	var h heaps.Lazy[grid.V]
	h.Push(0, from)
	for h.Len() > 0 {
		k, v := h.Pop()
		if done[v] {
			continue
		}
		done[v] = true
		if v == to {
			return k
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
	return math.Inf(1)
}

func TestSingleSinkMatchesShortestPath(t *testing.T) {
	g := newGraph(12, 12, 4)
	rng := rand.New(rand.NewPCG(5, 8))
	for it := 0; it < 20; it++ {
		root := g.At(rng.Int32N(12), rng.Int32N(12), 0)
		sink := g.At(rng.Int32N(12), rng.Int32N(12), 0)
		if root == sink {
			continue
		}
		w := rng.Float64() * 3
		in := testInstance(12, 12, 4, []nets.Sink{{V: sink, W: w}}, root, g)
		topo := rsmt.Build(in.TermPts())
		res, err := Embed(in, topo)
		if err != nil {
			t.Fatal(err)
		}
		want := dijkstra(g, in.C, w, sink, root)
		if math.Abs(res.Estimate-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("estimate %v want %v", res.Estimate, want)
		}
		ev, err := nets.Evaluate(in, res.Tree)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ev.Total-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("evaluated %v want %v", ev.Total, want)
		}
	}
}

func TestEvaluateMatchesEstimateOnTrees(t *testing.T) {
	// When reconstructed paths don't overlap, Evaluate should reproduce
	// the DP estimate (dbif=0 so λ assignment can't shift).
	g := newGraph(16, 16, 4)
	rng := rand.New(rand.NewPCG(9, 1))
	agree := 0
	for it := 0; it < 30; it++ {
		n := 2 + rng.IntN(5)
		sinks := make([]nets.Sink, n)
		for i := range sinks {
			sinks[i] = nets.Sink{V: g.At(rng.Int32N(16), rng.Int32N(16), 0), W: rng.Float64() * 2}
		}
		in := testInstance(16, 16, 4, sinks, g.At(rng.Int32N(16), rng.Int32N(16), 0), g)
		topo := rsmt.Build(in.TermPts())
		res, err := Embed(in, topo)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := nets.Evaluate(in, res.Tree)
		if err != nil {
			t.Fatal(err)
		}
		// Pruning can only reduce cost below the estimate.
		if ev.Total > res.Estimate+1e-6*math.Max(1, res.Estimate) {
			t.Fatalf("evaluated %v exceeds estimate %v", ev.Total, res.Estimate)
		}
		if math.Abs(ev.Total-res.Estimate) < 1e-6*math.Max(1, res.Estimate) {
			agree++
		}
	}
	if agree < 15 {
		t.Fatalf("estimate agreed on only %d/30 instances — suspicious DP", agree)
	}
}

func TestEmbedPrefersFastLayersForCriticalNets(t *testing.T) {
	// With a heavy delay weight the embedding should climb to fast upper
	// layers; with weight 0 it should stay low (vias cost, no benefit).
	g := newGraph(24, 4, 8)
	root := g.At(0, 0, 0)
	sink := g.At(23, 0, 0)
	topoPts := []nets.Sink{{V: sink, W: 0}}
	in := testInstance(24, 4, 8, topoPts, root, g)
	topo := rsmt.Build(in.TermPts())
	cheap, err := Embed(in, topo)
	if err != nil {
		t.Fatal(err)
	}
	in2 := testInstance(24, 4, 8, []nets.Sink{{V: sink, W: 50}}, root, g)
	fast, err := Embed(in2, topo)
	if err != nil {
		t.Fatal(err)
	}
	maxLayer := func(tr *nets.RTree) int32 {
		var m int32
		for _, st := range tr.Steps {
			_, _, l := g.XYL(st.Arc.To)
			if l > m {
				m = l
			}
		}
		return m
	}
	if maxLayer(cheap.Tree) >= maxLayer(fast.Tree) {
		t.Fatalf("critical net did not climb layers: cheap max %d, fast max %d", maxLayer(cheap.Tree), maxLayer(fast.Tree))
	}
	evCheap, _ := nets.Evaluate(in2, cheap.Tree)
	evFast, err := nets.Evaluate(in2, fast.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if evFast.Total > evCheap.Total {
		t.Fatalf("fast embedding worse under heavy weight: %v vs %v", evFast.Total, evCheap.Total)
	}
}

func TestEmbedAvoidsCongestion(t *testing.T) {
	// Price a wall of segments; the embedding should detour around it.
	g := newGraph(10, 10, 2)
	c := grid.NewCosts(g)
	// Wall at x=4..5 on layer 0 rows 0..8 (leave row 9 open).
	for y := int32(0); y < 9; y++ {
		c.Mult[g.SegH(0, y, 4)] = 50
	}
	in := &nets.Instance{G: g, C: c, Root: g.At(0, 0, 0),
		Sinks: []nets.Sink{{V: g.At(9, 0, 0), W: 0}}, Win: g.FullWindow()}
	topo := rsmt.Build(in.TermPts())
	res, err := Embed(in, topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Tree.Steps {
		if !st.Arc.Via && c.Mult[st.Arc.Seg] > 1 {
			t.Fatalf("embedding used priced segment %d", st.Arc.Seg)
		}
	}
}

func TestEmbedMultiSinkValidity(t *testing.T) {
	g := newGraph(20, 20, 5)
	rng := rand.New(rand.NewPCG(11, 12))
	for it := 0; it < 25; it++ {
		n := 2 + rng.IntN(12)
		sinks := make([]nets.Sink, n)
		for i := range sinks {
			sinks[i] = nets.Sink{
				V: g.At(rng.Int32N(20), rng.Int32N(20), rng.Int32N(2)),
				W: rng.Float64() * 3,
			}
		}
		in := &nets.Instance{G: g, C: grid.NewCosts(g), Root: g.At(rng.Int32N(20), rng.Int32N(20), 0),
			Sinks: sinks, DBif: 3, Eta: 0.25, Win: g.FullWindow()}
		topo := rsmt.Build(in.TermPts())
		res, err := Embed(in, topo)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nets.Evaluate(in, res.Tree); err != nil {
			t.Fatalf("invalid embedded tree: %v", err)
		}
	}
}

func TestEmbedWindowed(t *testing.T) {
	// A restricted window must still produce a valid tree when all
	// terminals are inside it.
	g := newGraph(30, 30, 4)
	in := &nets.Instance{G: g, C: grid.NewCosts(g), Root: g.At(10, 10, 0),
		Sinks: []nets.Sink{{V: g.At(14, 12, 0), W: 1}, {V: g.At(12, 15, 0), W: 2}}}
	in.Win = in.DefaultWindow(3)
	topo := rsmt.Build(in.TermPts())
	res, err := Embed(in, topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nets.Evaluate(in, res.Tree); err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Tree.Steps {
		if !in.Win.Contains(g.Pt(st.From)) || !in.Win.Contains(g.Pt(st.Arc.To)) {
			t.Fatalf("step escapes window")
		}
	}
}

func TestEmbedSinkOutsideWindowFails(t *testing.T) {
	g := newGraph(30, 30, 4)
	in := &nets.Instance{G: g, C: grid.NewCosts(g), Root: g.At(1, 1, 0),
		Sinks: []nets.Sink{{V: g.At(25, 25, 0), W: 1}}}
	in.Win = geom.Rect{X0: 0, Y0: 0, X1: 5, Y1: 5}
	topo := rsmt.Build(in.TermPts())
	if _, err := Embed(in, topo); err == nil {
		t.Fatal("expected error for sink outside window")
	}
}

func TestEmbedZeroSinks(t *testing.T) {
	g := newGraph(5, 5, 2)
	in := &nets.Instance{G: g, C: grid.NewCosts(g), Root: g.At(1, 1, 0), Win: g.FullWindow()}
	topo := rsmt.Build(in.TermPts())
	res, err := Embed(in, topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tree.Steps) != 0 {
		t.Fatal("zero-sink net should have empty tree")
	}
}

// TestEstimateEqualsReconstruction: every topology edge is spread once
// and reconstructed off that spread's own predecessor codes, so the
// steps Run emits — before PruneToTree merges overlaps — price exactly
// what its tables priced: Σ over the edges' steps of cost + subW·delay,
// plus the bifurcation constants, is the estimate. Corridors and bounds
// must not break that (a reconstruction that re-searched a different
// box would). Summed with the tables' own roundings — an edge's label is
// its node's float32 table cell plus its steps in the kernel's
// association — the two are equal to the last bit; summed in plain
// float64 they differ by the float32 rounding of the tables.
func TestEstimateEqualsReconstruction(t *testing.T) {
	g := newGraph(22, 18, 6)
	rng := rand.New(rand.NewPCG(41, 22))
	var d DP
	worst, cases := 0.0, 0
	for it := 0; cases < 240; it++ {
		sinks := make([]nets.Sink, 2+rng.IntN(9))
		for i := range sinks {
			sinks[i] = nets.Sink{V: g.At(rng.Int32N(22), rng.Int32N(18), rng.Int32N(2)), W: rng.Float64() * 3}
		}
		in := testInstance(22, 18, 6, sinks, g.At(rng.Int32N(22), rng.Int32N(18), 0), g)
		in.DBif = rng.Float64() * 3
		// Prices steep enough that a path through a slightly wider box
		// would often be cheaper: 9 of these cases told a reconstruction
		// that re-searched such a box from this one.
		for i := range in.C.Mult {
			if rng.IntN(2) == 0 {
				in.C.Mult[i] = 1 + rng.Float32()*40
			}
		}
		topo := rsmt.Build(in.TermPts())
		lim := Limits{Halo: 1 + rng.Int32N(3), Bound: math.Inf(1), Settles: math.MaxInt, Cells: math.MaxInt64}
		_, free, err := d.Run(in, topo, in.Win, lim)
		if err != nil {
			t.Fatalf("it %d: %v", it, err)
		}
		if len(d.steps) == 0 {
			continue
		}
		lim.Bound = free * (1.001 + rng.Float64())
		_, est, err := d.Run(in, topo, in.Win, lim)
		if err != nil {
			t.Fatalf("it %d: bound %v over estimate %v: %v", it, lim.Bound, free, err)
		}
		cases++

		// label replays the label v's spread gave cell at from the emitted
		// steps, which it checks off against the codes as down walks them;
		// plain accumulates the same arcs without the tables' roundings.
		next, plain := 0, 0.0
		var label func(v, at int32) float64
		label = func(v, at int32) float64 {
			first := next
			for {
				p, arc, ok := g.Pred(d.win, d.codes[v][at], at)
				if !ok {
					t.Fatalf("it %d: node %d: cell %d carries no code", it, v, at)
				}
				if p < 0 {
					break
				}
				if next == len(d.steps) || d.steps[next] != (nets.Step{From: d.win.Vertex(p), Arc: arc}) {
					t.Fatalf("it %d: node %d: emitted step %d is not the coded predecessor of cell %d", it, v, next, at)
				}
				next, at = next+1, p
			}
			last := next
			var cell float32 // D_v at the seed the walk ended on, as accumulate sums it
			for i, c := range d.kids[v] {
				if l := float32(label(c, at)); i == 0 {
					cell = l
				} else {
					cell += l
				}
			}
			k := float64(cell)
			for i := last - 1; i >= first; i-- {
				a := d.steps[i].Arc
				k = k + in.C.ArcCost(a) + d.subW[v]*in.C.ArcDelay(a)
				plain += in.C.ArcCost(a) + d.subW[v]*in.C.ArcDelay(a)
			}
			return k
		}
		penalty := 0.0
		for _, ch := range d.kids {
			if len(ch) == 2 {
				penalty += nets.Beta(in.DBif, in.Eta, d.subW[ch[0]], d.subW[ch[1]])
			}
		}
		exact := label(d.kids[0][0], d.win.Index(in.Root)) + penalty
		plain += penalty
		if next != len(d.steps) {
			t.Fatalf("it %d: %d steps emitted, the codes account for %d", it, len(d.steps), next)
		}
		if exact != est {
			t.Fatalf("it %d (halo %d): steps replay to %v, estimate %v", it, lim.Halo, exact, est)
		}
		rel := math.Abs(plain-est) / est
		worst = math.Max(worst, rel)
		if rel > 1e-6 {
			t.Fatalf("it %d (halo %d): reconstruction prices %v, estimate %v (rel %.2g)", it, lim.Halo, plain, est, rel)
		}
	}
	t.Logf("%d cases, worst float64-vs-float32-table gap %.2g", cases, worst)
}

// TestRunRejectsLayerStackBeyondCodeWidth: a predecessor code names the
// wire type in seven bits less the three non-wire codes; a stack with
// more types on a layer must be refused, not aliased onto other codes.
func TestRunRejectsLayerStackBeyondCodeWidth(t *testing.T) {
	layers := dly.DefaultTech(3).BuildLayers()
	wide := make([]grid.WireType, grid.MaxWireTypes+1)
	for i := range wide {
		wide[i] = layers[1].Wires[0]
	}
	layers[1].Wires = wide
	g := grid.New(8, 8, layers, 1)
	in := testInstance(8, 8, 3, []nets.Sink{{V: g.At(6, 5, 0), W: 1}}, g.At(1, 1, 0), g)
	if _, err := Embed(in, rsmt.Build(in.TermPts())); err == nil {
		t.Fatalf("Embed accepted %d wire types on a layer; codes hold %d", len(wide), grid.MaxWireTypes)
	}
	layers[1].Wires = wide[:grid.MaxWireTypes]
	if _, err := Embed(in, rsmt.Build(in.TermPts())); err != nil {
		t.Fatalf("%d wire types fit the code: %v", grid.MaxWireTypes, err)
	}
}

// TestDownReportsBrokenCodes: the top-down walk trusts nothing about
// the table it reads — codes that cycle, or that decode to no move
// (which codes do is grid's TestPredInvertsEveryMove), end in an error
// after at most one visit per cell.
func TestDownReportsBrokenCodes(t *testing.T) {
	in, topo := embedCase()
	var d DP
	if _, _, err := d.Run(in, topo, in.Win, Limits{Halo: 2, Bound: math.Inf(1), Settles: math.MaxInt, Cells: math.MaxInt64}); err != nil {
		t.Fatal(err)
	}
	top, root := d.kids[0][0], d.win.Index(in.Root)
	horizontal := in.G.Layers[0].Dir == grid.DirH
	for name, fill := range map[string]func(x int32) uint8{
		// Neighbours along layer 0 point at each other.
		"cycle": func(x int32) uint8 {
			c := x % d.win.R.W()
			if !horizontal {
				c = x / d.win.R.W() % d.win.R.H()
			}
			return grid.WireCode(0, int(c&1))
		},
		"undecodable": func(int32) uint8 { return grid.CodeViaUp }, // off the bottom layer
	} {
		for x := range d.codes[top] {
			d.codes[top][x] = fill(int32(x))
		}
		if err := d.down(top, root); err != errCodes {
			t.Errorf("%s: down returned %v, want %v", name, err, errCodes)
		}
	}
}

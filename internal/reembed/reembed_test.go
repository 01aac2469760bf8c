package reembed

import (
	"math"
	"math/rand/v2"
	"testing"

	"costdist/internal/dly"
	"costdist/internal/embed"
	"costdist/internal/exact"
	"costdist/internal/grid"
	"costdist/internal/nets"
	"costdist/internal/rsmt"
)

func newGraph(nx, ny int32, nLayers int) *grid.Graph {
	tech := dly.DefaultTech(nLayers)
	return grid.New(nx, ny, tech.BuildLayers(), tech.GCellUM)
}

func testInstance(g *grid.Graph, root grid.V, sinks []nets.Sink) *nets.Instance {
	in := &nets.Instance{G: g, C: grid.NewCosts(g), Root: root, Sinks: sinks, DBif: 0, Eta: 0.25}
	in.Win = g.FullWindow()
	return in
}

// cachedTree builds a "previous wave" tree for the instance with the
// embedding DP over an RSMT topology — the same shape the router caches.
func cachedTree(t testing.TB, in *nets.Instance) *nets.RTree {
	t.Helper()
	topo := rsmt.Build(in.TermPts())
	res, err := embed.Embed(in, topo)
	if err != nil {
		t.Fatal(err)
	}
	return res.Tree
}

func treeEqual(a, b *nets.RTree) bool {
	if len(a.Steps) != len(b.Steps) {
		return false
	}
	for i := range a.Steps {
		if a.Steps[i] != b.Steps[i] {
			return false
		}
	}
	return true
}

// TestRepairPropertyBounds is the repair-tier contract: on seeded
// instances with perturbed prices, the adopted tree's priced cost is
// ≤ the replayed cached tree's cost and ≥ the full re-solve optimum.
func TestRepairPropertyBounds(t *testing.T) {
	g := newGraph(9, 9, 2)
	rng := rand.New(rand.NewPCG(21, 7))
	scr := NewScratch()
	improved := 0
	for it := 0; it < 40; it++ {
		n := 1 + rng.IntN(4)
		sinks := make([]nets.Sink, n)
		for i := range sinks {
			sinks[i] = nets.Sink{V: g.At(rng.Int32N(9), rng.Int32N(9), 0), W: rng.Float64() * 2}
		}
		in := testInstance(g, g.At(rng.Int32N(9), rng.Int32N(9), 0), sinks)
		cached := cachedTree(t, in)

		// Reprice a random slice of segments, as a congestion wave would.
		for k := 0; k < 40; k++ {
			in.C.Mult[rng.IntN(len(in.C.Mult))] = 1 + rng.Float32()*8
		}

		out, err := Repair(in, cached, scr)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := nets.Evaluate(in, cached)
		if err != nil {
			t.Fatal(err)
		}
		if out.Eval.Total > replay.Total+1e-9 {
			t.Fatalf("it %d: repaired %v worse than replay %v", it, out.Eval.Total, replay.Total)
		}
		ex, err := exact.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if out.Eval.Total < ex.LowerBound-1e-6*math.Max(1, ex.LowerBound) {
			t.Fatalf("it %d: repaired %v below optimum %v", it, out.Eval.Total, ex.LowerBound)
		}
		if out.Improved {
			improved++
		}
	}
	if improved == 0 {
		t.Fatal("repair never improved on any perturbed instance — rung is inert")
	}
}

// TestRepairUnderUnchangedPrices: with nothing repriced, the fixed
// topology DP re-finds an embedding at least as good as the cached one.
func TestRepairUnderUnchangedPrices(t *testing.T) {
	g := newGraph(12, 12, 3)
	rng := rand.New(rand.NewPCG(3, 9))
	scr := NewScratch()
	for it := 0; it < 25; it++ {
		n := 1 + rng.IntN(6)
		sinks := make([]nets.Sink, n)
		for i := range sinks {
			sinks[i] = nets.Sink{V: g.At(rng.Int32N(12), rng.Int32N(12), 0), W: rng.Float64() * 3}
		}
		in := testInstance(g, g.At(rng.Int32N(12), rng.Int32N(12), 0), sinks)
		in.DBif = 2
		cached := cachedTree(t, in)
		out, err := Repair(in, cached, scr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nets.Evaluate(in, out.Tree); err != nil {
			t.Fatalf("it %d: adopted tree invalid: %v", it, err)
		}
		if out.Eval.Total > out.CachedEval.Total+1e-9 {
			t.Fatalf("it %d: adoption rule violated: %v > %v", it, out.Eval.Total, out.CachedEval.Total)
		}
	}
}

// TestRepairDetoursAroundPricedWall: price a short wall across the
// cached path; the repair must route around it inside the halo window.
func TestRepairDetoursAroundPricedWall(t *testing.T) {
	g := newGraph(10, 10, 2)
	in := testInstance(g, g.At(0, 0, 0), []nets.Sink{{V: g.At(9, 0, 0), W: 0}})
	cached := cachedTree(t, in)

	// Wall on layer-0 horizontal segments at x=4, rows 0..1 — the halo
	// window (rows 0..2) leaves row 2 open for the detour.
	for y := int32(0); y < 2; y++ {
		in.C.Mult[g.SegH(0, y, 4)] = 50
	}
	out, err := Repair(in, cached, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Improved {
		t.Fatalf("repair did not improve: %v vs cached %v", out.Eval.Total, out.CachedEval.Total)
	}
	for _, st := range out.Tree.Steps {
		if !st.Arc.Via && in.C.Mult[st.Arc.Seg] > 1 {
			t.Fatalf("repaired tree still uses priced segment %d", st.Arc.Seg)
		}
	}
}

// TestRepairDeterministicAcrossScratchReuse: the repair is a pure
// function of (instance, cached tree) — reusing a dirty scratch or
// using a fresh one must give bit-identical trees.
func TestRepairDeterministicAcrossScratchReuse(t *testing.T) {
	g := newGraph(14, 14, 3)
	rng := rand.New(rand.NewPCG(8, 4))
	shared := NewScratch()
	for it := 0; it < 15; it++ {
		n := 2 + rng.IntN(5)
		sinks := make([]nets.Sink, n)
		for i := range sinks {
			sinks[i] = nets.Sink{V: g.At(rng.Int32N(14), rng.Int32N(14), rng.Int32N(2)), W: rng.Float64() * 2}
		}
		in := testInstance(g, g.At(rng.Int32N(14), rng.Int32N(14), 0), sinks)
		in.DBif = 3
		cached := cachedTree(t, in)
		for k := 0; k < 30; k++ {
			in.C.Mult[rng.IntN(len(in.C.Mult))] = 1 + rng.Float32()*5
		}
		a, err := Repair(in, cached, shared)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Repair(in, cached, shared)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Repair(in, cached, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		if !treeEqual(a.Tree, b.Tree) || !treeEqual(a.Tree, c.Tree) {
			t.Fatalf("it %d: repair not deterministic across scratch reuse", it)
		}
	}
}

// TestExtractTopologyShape: extraction contracts pass-through chains,
// keeps every sink exactly once, and yields a Canonicalize-valid tree.
func TestExtractTopologyShape(t *testing.T) {
	g := newGraph(16, 16, 4)
	rng := rand.New(rand.NewPCG(13, 2))
	scr := NewScratch()
	for it := 0; it < 20; it++ {
		n := 1 + rng.IntN(8)
		sinks := make([]nets.Sink, n)
		for i := range sinks {
			sinks[i] = nets.Sink{V: g.At(rng.Int32N(16), rng.Int32N(16), 0), W: rng.Float64()}
		}
		in := testInstance(g, g.At(rng.Int32N(16), rng.Int32N(16), 0), sinks)
		cached := cachedTree(t, in)
		if len(cached.Steps) == 0 {
			continue
		}
		topo, err := ExtractTopology(in, cached, Window(in, cached), scr)
		if err != nil {
			t.Fatal(err)
		}
		sinkW := make([]float64, len(in.Sinks))
		for i, s := range in.Sinks {
			sinkW[i] = s.W
		}
		ct := topo.Canonicalize(sinkW, in.DBif, in.Eta)
		if err := ct.Validate(len(in.Sinks)); err != nil {
			t.Fatalf("it %d: extracted topology invalid: %v", it, err)
		}
		// Every non-leaf chain is contracted: topology nodes are at most
		// terminals + branch points, far below the step count of the
		// embedded tree for multi-step nets.
		if len(topo.Nodes) > 2*(len(in.Sinks)+1) {
			t.Fatalf("it %d: extraction kept %d nodes for %d sinks — chains not spliced",
				it, len(topo.Nodes), len(in.Sinks))
		}
	}
}

// TestRepairColocatedTerminals: all sinks on the root vertex → empty
// cached tree, trivially clean outcome.
func TestRepairColocatedTerminals(t *testing.T) {
	g := newGraph(6, 6, 2)
	root := g.At(3, 3, 0)
	in := testInstance(g, root, []nets.Sink{{V: root, W: 1}, {V: root, W: 2}})
	cached := cachedTree(t, in)
	if len(cached.Steps) != 0 {
		t.Fatalf("expected empty cached tree, got %d steps", len(cached.Steps))
	}
	out, err := Repair(in, cached, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if out.Improved || len(out.Tree.Steps) != 0 {
		t.Fatal("co-located net should repair to the empty tree unchanged")
	}
}

// repairCase is a fixed congested 8-layer repair: a 10-sink net whose
// cached tree was embedded before a third of the segments repriced.
func repairCase(tb testing.TB) (*nets.Instance, *nets.RTree) {
	tb.Helper()
	g := newGraph(26, 26, 8)
	rng := rand.New(rand.NewPCG(31, 5))
	sinks := make([]nets.Sink, 10)
	for i := range sinks {
		sinks[i] = nets.Sink{V: g.At(4+rng.Int32N(16), 4+rng.Int32N(16), 0), W: rng.Float64() * 2}
	}
	in := testInstance(g, g.At(12, 12, 0), sinks)
	in.DBif = 2
	res, err := embed.Embed(in, rsmt.Build(in.TermPts()))
	if err != nil {
		tb.Fatal(err)
	}
	for i := range in.C.Mult {
		if rng.IntN(3) == 0 {
			in.C.Mult[i] = 1 + rng.Float32()*6
		}
	}
	return in, res.Tree
}

// TestRepairAllocationBound pins what one attempt on a warmed scratch
// allocates. The DP allocates nothing (embed's
// TestRunAllocatesNothingForTheDP), the rootings of extraction,
// PruneToTree and the two Evaluates run on reused slices; what remains
// is Canonicalize, SplitPenalties' merge nodes, the two Evals, the
// PlaneTree and the result tree (ROADMAP item 2). The attempt is held
// under the measurement + 25 %: 207 on go1.24.
func TestRepairAllocationBound(t *testing.T) {
	in, cached := repairCase(t)
	scr := NewScratch()
	var out *Outcome
	attempt := func() {
		var err error
		if out, err = Repair(in, cached, scr); err != nil {
			t.Fatal(err)
		}
	}
	attempt()
	if !out.Improved {
		t.Fatal("fixture does not exercise reconstruction: repair did not improve")
	}
	const maxAllocs = 258
	if n := testing.AllocsPerRun(10, attempt); n > maxAllocs {
		t.Fatalf("Repair allocates %v times per attempt on a warmed scratch, pinned at %d", n, maxAllocs)
	}
}

// TestRepairSettlesOnce is the repair rung's work gate, a count and not
// a clock: the DP spreads every topology edge once and reads the tree
// back off the recorded predecessors, so the fixture settles 5726
// labels an attempt. A reconstruction that re-spread each edge toward
// its parent's cell settled 8148.
func TestRepairSettlesOnce(t *testing.T) {
	in, cached := repairCase(t)
	scr := NewScratch()
	out, err := Repair(in, cached, scr)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Improved {
		t.Fatal("fixture does not exercise reconstruction: repair did not improve")
	}
	if scr.dp.Settles > 6000 {
		t.Fatalf("one repair attempt settled %d labels, gate 6000", scr.dp.Settles)
	}
}

var benchOutcome *Outcome

// BenchmarkRepair times one repair attempt on a warmed scratch and
// reports the DP's settled labels as its deterministic work count.
func BenchmarkRepair(b *testing.B) {
	in, cached := repairCase(b)
	scr := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Repair(in, cached, scr)
		if err != nil {
			b.Fatal(err)
		}
		benchOutcome = out
	}
	b.ReportMetric(float64(scr.dp.Settles)/float64(b.N), "settles/op")
}

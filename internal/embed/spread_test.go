package embed

import (
	"container/heap"
	"math"
	"math/rand/v2"
	"testing"

	"costdist/internal/geom"
	"costdist/internal/grid"
	"costdist/internal/nets"
	"costdist/internal/rsmt"
)

// refEntry is one queued label of the reference spread.
type refEntry struct {
	key float64
	x   int32
}

// refQueue is a container/heap of labels with lazy deletion, ordered by
// (label, window index): the spread's settle rule, independent of the
// kernel's heap.
type refQueue []refEntry

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	return q[i].key < q[j].key || q[i].key == q[j].key && q[i].x < q[j].x
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(e any)   { *q = append(*q, e.(refEntry)) }
func (q *refQueue) Pop() any {
	e := (*q)[len(*q)-1]
	*q = (*q)[:len(*q)-1]
	return e
}

// refSpread is the callback-based spread the flat kernel replaced, kept
// as the reference implementation: grid.Graph.Arcs per settle, a closure
// per arc, Window.Index per target, Costs.ArcCost/ArcDelay per arc,
// predecessor index and arc stored whole, and a queue that holds a
// duplicate per improved label and skips the stale ones when popped.
type refSpread struct {
	dist             []float64
	pred             []int32
	parc             []grid.Arc
	touched, settled []bool
	settles          int
}

func runRef(in *nets.Instance, win grid.Window, seeds []float32, seedRect geom.Rect, w float64,
	corr geom.Rect, bound float64, limit int, target int32) (*refSpread, bool) {
	n := win.Size()
	r := &refSpread{dist: make([]float64, n), pred: make([]int32, n), parc: make([]grid.Arc, n),
		touched: make([]bool, n), settled: make([]bool, n)}
	var h refQueue
	g, costs := in.G, in.C
	for l := int32(0); l < win.Layers(); l++ {
		for y := seedRect.Y0; y <= seedRect.Y1; y++ {
			for x := seedRect.X0; x <= seedRect.X1; x++ {
				i := win.RectIndex(x, y, l)
				if seeds[i] < inf32 && float64(seeds[i]) < bound {
					r.dist[i], r.pred[i], r.touched[i] = float64(seeds[i]), -1, true
					heap.Push(&h, refEntry{r.dist[i], i})
				}
			}
		}
	}
	for h.Len() > 0 {
		e := heap.Pop(&h).(refEntry)
		k, x := e.key, e.x
		if k >= bound {
			return r, true
		}
		if r.settled[x] || k > r.dist[x] {
			continue
		}
		r.settled[x] = true
		r.settles++
		if r.settles > limit {
			return r, false
		}
		if x == target {
			return r, true
		}
		g.Arcs(win.Vertex(x), win.R, func(a grid.Arc) bool {
			y := win.Index(a.To)
			if y < 0 || r.settled[y] || !corr.Contains(g.Pt(a.To)) {
				return true
			}
			nd := k + costs.ArcCost(a) + w*costs.ArcDelay(a)
			if nd < bound && (!r.touched[y] || nd < r.dist[y]) {
				r.dist[y], r.pred[y], r.parc[y], r.touched[y] = nd, x, a, true
				heap.Push(&h, refEntry{nd, y})
			}
			return true
		})
	}
	return r, true
}

// congest reprices a random third of the segments, as negotiated
// congestion would.
func congest(c *grid.Costs, rng *rand.Rand) {
	for i := range c.Mult {
		if rng.IntN(3) == 0 {
			c.Mult[i] = 1 + rng.Float32()*9
		}
	}
}

// subRect draws a rectangle inside r; shape 1 forces one row, 2 one
// column, 3 a single gcell in r's corner, anything else a free box.
func subRect(rng *rand.Rand, r geom.Rect, shape int) geom.Rect {
	x0, y0 := r.X0+rng.Int32N(r.W()), r.Y0+rng.Int32N(r.H())
	s := geom.Rect{X0: x0, Y0: y0, X1: x0 + rng.Int32N(r.X1-x0+1), Y1: y0 + rng.Int32N(r.Y1-y0+1)}
	switch shape {
	case 1:
		s.Y1 = s.Y0
	case 2:
		s.X1 = s.X0
	case 3:
		s = geom.Rect{X0: r.X1, Y0: r.Y0, X1: r.X1, Y1: r.Y0}
	}
	return s
}

// TestSpreadMatchesReference is the kernel's bit-identity contract: on
// seeded (window, corridor, bound, target, weight, budget) cases over
// congested 8-layer grids the flat kernel must settle the same cells in
// the same number of settles with the same labels as the callback
// search — every touched label, settled or tentative, with the
// predecessor and arc its code decodes to, exhaustive or targeted. The
// tie rule is part of the contract: cells settle in (label, window
// index) order, so of two equal labels the lower index settles first,
// and a budget abort or a reached target cuts the search at the same
// cell whatever order the labels were queued in.
func TestSpreadMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 4))
	g := newGraph(19, 15, 8)
	var ws Workspace
	var codes []uint8
	modes := map[string]int{}
	for it := 0; it < 400; it++ {
		in := testInstance(19, 15, 8, nil, g.At(0, 0, 0), g)
		congest(in.C, rng)
		winR := g.FullWindow()
		if it%4 != 0 {
			winR = subRect(rng, g.FullWindow(), 0)
		}
		win := g.NewWindow(winR)
		corr, seedRect := winR, winR
		if shape := it % 7; shape != 0 { // shape 0: corridor = window, the Embed mode
			corr = subRect(rng, winR, shape)
			seedRect = corr
			if it%3 == 0 {
				seedRect = subRect(rng, corr, 0)
			}
		}
		seeds := make([]float32, win.Size())
		for i := range seeds {
			seeds[i] = inf32
			if rng.IntN(40) == 0 {
				seeds[i] = rng.Float32() * 30
			}
		}
		seeds[win.RectIndex(seedRect.X0, seedRect.Y0, rng.Int32N(8))] = rng.Float32()
		w := rng.Float64() * 4
		if it%5 == 0 {
			w = 0
		}
		bound, limit, target := math.Inf(1), math.MaxInt, int32(-1)
		if it%2 == 1 {
			target = win.RectIndex(corr.X0+rng.Int32N(corr.W()), corr.Y0+rng.Int32N(corr.H()), rng.Int32N(8))
		}
		if corr != winR || it%14 == 7 {
			if rng.IntN(2) == 0 {
				bound = 5 + rng.Float64()*60
			}
			if rng.IntN(2) == 0 {
				limit = 1 + rng.IntN(120)
			}
		}

		want, wantOK := runRef(in, win, seeds, seedRect, w, corr, bound, limit, target)
		ws.Reset(in, win)
		base := ws.Settles
		codes = resized(codes, len(seeds)) // stale codes of earlier cases stay in it, as in the DP's pool
		ok := ws.Spread(seeds, seedRect, w, corr, bound, limit, target, codes)
		if ok != wantOK || ws.Settles-base != want.settles {
			t.Fatalf("it %d: ok %v settles %d, reference ok %v settles %d", it, ok, ws.Settles-base, wantOK, want.settles)
		}
		for x := int32(0); x < win.Size(); x++ {
			if got := ws.settled[x] == ws.Epoch.Cur(); got != want.settled[x] {
				t.Fatalf("it %d: cell %d settled %v, reference %v", it, x, got, want.settled[x])
			}
			if got := ws.touched[x] == ws.Epoch.Cur(); got != want.touched[x] {
				t.Fatalf("it %d: cell %d touched %v, reference %v", it, x, got, want.touched[x])
			}
			if !want.touched[x] {
				continue
			}
			if ws.dist[x] != want.dist[x] {
				t.Fatalf("it %d: cell %d dist %v, reference %v", it, x, ws.dist[x], want.dist[x])
			}
			pred, arc, ok := g.Pred(win, codes[x], x)
			if !ok || pred != want.pred[x] || pred >= 0 && arc != want.parc[x] {
				t.Fatalf("it %d: cell %d code %d decodes to pred %d arc %+v (ok %v), reference %d %+v",
					it, x, codes[x], pred, arc, ok, want.pred[x], want.parc[x])
			}
		}
		switch {
		case !ok:
			modes["budget abort"]++
		case target >= 0 && want.settled[target]:
			modes["target settled"]++
		case !math.IsInf(bound, 1) && want.settles > 0:
			modes["bounded"]++
		}
		if corr == winR && math.IsInf(bound, 1) {
			modes["embed mode"]++
		}
		if corr.W() == 1 || corr.H() == 1 {
			modes["thin corridor"]++
		}
	}
	for _, m := range []string{"budget abort", "target settled", "bounded", "embed mode", "thin corridor"} {
		if modes[m] < 10 {
			t.Errorf("only %d cases exercised %q", modes[m], m)
		}
	}
}

// spreadCase is a fixed mid-size spread on a congested 8-layer grid.
func spreadCase() (*nets.Instance, grid.Window, []float32) {
	g := newGraph(24, 24, 8)
	in := testInstance(24, 24, 8, nil, g.At(0, 0, 0), g)
	congest(in.C, rand.New(rand.NewPCG(2, 3)))
	win := g.NewWindow(geom.Rect{X0: 2, Y0: 3, X1: 21, Y1: 20})
	seeds := make([]float32, win.Size())
	for i := range seeds {
		seeds[i] = inf32
	}
	seeds[win.Index(g.At(5, 5, 0))] = 0
	seeds[win.Index(g.At(18, 17, 2))] = 1.5
	return in, win, seeds
}

// TestSpreadAllocatesNothing pins the kernel at zero allocations per
// call once the workspace has served the window.
func TestSpreadAllocatesNothing(t *testing.T) {
	in, win, seeds := spreadCase()
	var ws Workspace
	ws.Reset(in, win)
	target, codes := win.Index(in.G.At(12, 12, 0)), make([]uint8, len(seeds))
	run := func() {
		ws.Spread(seeds, win.R, 1.5, win.R, math.Inf(1), math.MaxInt, -1, codes)
		ws.Spread(seeds, win.R, 1.5, win.R, 80, math.MaxInt, target, codes)
	}
	run()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("Spread allocates %v times per call on a warmed workspace", n)
	}
}

// TestRunAllocatesNothingForTheDP: on a warmed DP a run — tables,
// spreads, reconstruction, under the repair rung's kind of limits — may
// allocate exactly what canonicalizing the topology and pruning the
// steps allocate on their own.
func TestRunAllocatesNothingForTheDP(t *testing.T) {
	in, topo := embedCase()
	lim := Limits{Halo: 2, Bound: math.Inf(1), Settles: 1 << 20, Cells: 1 << 30}
	var d DP
	run := func() {
		if _, _, err := d.Run(in, topo, in.Win, lim); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if len(d.steps) == 0 {
		t.Fatal("fixture does not exercise reconstruction")
	}
	rest := func() {
		ct := topo.Canonicalize(d.sinkW, in.DBif, in.Eta)
		if err := ct.Validate(len(in.Sinks)); err != nil {
			t.Fatal(err)
		}
		ct.Children()
		if _, err := nets.PruneToTree(in, d.steps); err != nil {
			t.Fatal(err)
		}
	}
	// The fewest of several single runs: PruneToTree borrows its rooting
	// from a sync.Pool, which a collection empties and -race drops a
	// quarter of the Puts of; the call after that regrows it.
	least := func(f func()) float64 {
		n := math.Inf(1)
		for i := 0; i < 16; i++ {
			n = min(n, testing.AllocsPerRun(1, f))
		}
		return n
	}
	if all, other := least(run), least(rest); all != other {
		t.Fatalf("Run allocates %v times, canonicalization and pruning alone %v: the DP allocates", all, other)
	}
}

// embedCase is a 16-sink RSMT topology on a congested 32×32×8 grid.
func embedCase() (*nets.Instance, *nets.PlaneTree) {
	g := newGraph(32, 32, 8)
	rng := rand.New(rand.NewPCG(16, 1))
	sinks := make([]nets.Sink, 16)
	for i := range sinks {
		sinks[i] = nets.Sink{V: g.At(rng.Int32N(32), rng.Int32N(32), 0), W: rng.Float64() * 2}
	}
	in := testInstance(32, 32, 8, sinks, g.At(16, 16, 0), g)
	in.DBif = 2
	congest(in.C, rng)
	return in, rsmt.Build(in.TermPts())
}

var benchSink *Result

// BenchmarkEmbed times the baselines' embedding of a 16-sink RSMT
// topology and reports the DP's settled labels as its work count.
func BenchmarkEmbed(b *testing.B) {
	in, topo := embedCase()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Embed(in, topo)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
	b.ReportMetric(float64(benchSink.Settles), "settles/op")
}

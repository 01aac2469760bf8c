package nets

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"costdist/internal/grid"
)

// The map-based PruneToTree, trimDanglers and Evaluate that Rooted
// replaced, verbatim but for the ref prefix: the references the tests
// and the fuzz target below hold the Rooted walks to, step for step and
// bit for bit.

type refHalfEdge struct {
	to  grid.V
	arc grid.Arc
}

// PruneToTree turns an arbitrary multiset of steps into a valid RTree
// for the instance: duplicate undirected edges are removed, a BFS
// spanning tree of the union is kept (rooted at the instance root), and
// dangling stubs ending at non-terminals are trimmed. Construction
// algorithms whose path unions may overlap (topology embedding, the
// exact DP) funnel their output through this function; pruning can only
// remove congestion cost. It errors if some sink is disconnected.
func refPruneToTree(in *Instance, steps []Step) (*RTree, error) {
	adj := make(map[grid.V][]Step)
	seen := make(map[[2]int64]bool, len(steps))
	for _, st := range steps {
		a, b := int64(st.From), int64(st.Arc.To)
		if a > b {
			a, b = b, a
		}
		key := [2]int64{a, b}
		if seen[key] {
			continue
		}
		seen[key] = true
		adj[st.From] = append(adj[st.From], st)
		rev := Step{From: st.Arc.To, Arc: st.Arc}
		rev.Arc.To = st.From
		adj[st.Arc.To] = append(adj[st.Arc.To], rev)
	}
	out := &RTree{}
	if len(adj) == 0 {
		for i, s := range in.Sinks {
			if s.V != in.Root {
				return nil, fmt.Errorf("nets: sink %d disconnected (empty edge set)", i)
			}
		}
		return out, nil
	}
	visited := map[grid.V]bool{in.Root: true}
	queue := []grid.V{in.Root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, st := range adj[v] {
			if visited[st.Arc.To] {
				continue
			}
			visited[st.Arc.To] = true
			out.Steps = append(out.Steps, st)
			queue = append(queue, st.Arc.To)
		}
	}
	for i, s := range in.Sinks {
		if s.V != in.Root && !visited[s.V] {
			return nil, fmt.Errorf("nets: sink %d disconnected after pruning", i)
		}
	}
	refTrimDanglers(in, out)
	return out, nil
}

// trimDanglers repeatedly removes leaf edges whose endpoint is neither
// the root nor a sink. Removing them strictly reduces cost and cannot
// affect any root-sink path.
func refTrimDanglers(in *Instance, rt *RTree) {
	keep := map[grid.V]bool{in.Root: true}
	for _, s := range in.Sinks {
		keep[s.V] = true
	}
	for {
		deg := map[grid.V]int{}
		for _, st := range rt.Steps {
			deg[st.From]++
			deg[st.Arc.To]++
		}
		out := rt.Steps[:0]
		removed := false
		for _, st := range rt.Steps {
			aLeaf := deg[st.From] == 1 && !keep[st.From]
			bLeaf := deg[st.Arc.To] == 1 && !keep[st.Arc.To]
			if aLeaf || bLeaf {
				removed = true
				continue
			}
			out = append(out, st)
		}
		rt.Steps = out
		if !removed {
			return
		}
	}
}

// Evaluate computes objective (1) with the bifurcation delay model (3)
// for an embedded tree. It validates that the steps form a tree
// containing root and sinks; all four algorithms are scored through this
// single function so comparisons are apples-to-apples.
func refEvaluate(in *Instance, tr *RTree) (*Eval, error) {
	ev := &Eval{SinkDelay: make([]float64, len(in.Sinks))}

	adj := make(map[grid.V][]refHalfEdge, len(tr.Steps)*2)
	seenSeg := make(map[[2]int64]bool, len(tr.Steps))
	for _, st := range tr.Steps {
		a, b := int64(st.From), int64(st.Arc.To)
		if a > b {
			a, b = b, a
		}
		key := [2]int64{a, b}
		if seenSeg[key] {
			return nil, fmt.Errorf("nets: duplicate tree edge %d-%d", a, b)
		}
		seenSeg[key] = true
		adj[st.From] = append(adj[st.From], refHalfEdge{to: st.Arc.To, arc: st.Arc})
		adj[st.Arc.To] = append(adj[st.Arc.To], refHalfEdge{to: st.From, arc: st.Arc})
		ev.CongCost += in.C.ArcCost(st.Arc)
		if st.Arc.Via {
			ev.Vias++
		} else {
			ev.WireSteps++
			ev.TrackGCells += float64(in.G.ArcCapUse(st.Arc))
		}
	}
	if _, ok := adj[in.Root]; !ok && len(tr.Steps) > 0 {
		return nil, fmt.Errorf("nets: root %d not in tree", in.Root)
	}

	// Sinks per vertex.
	sinksAt := make(map[grid.V][]int32)
	for i, s := range in.Sinks {
		sinksAt[s.V] = append(sinksAt[s.V], int32(i))
	}

	// Iterative rooted DFS: first pass computes subtree sink weights,
	// second pass pushes delays down with split penalties.
	parent := make(map[grid.V]grid.V, len(adj))
	order := make([]grid.V, 0, len(adj))
	parent[in.Root] = in.Root
	order = append(order, in.Root)
	for i := 0; i < len(order); i++ {
		v := order[i]
		for _, he := range adj[v] {
			if _, ok := parent[he.to]; !ok {
				parent[he.to] = v
				order = append(order, he.to)
			}
		}
	}
	if len(order) != len(adj) && len(tr.Steps) > 0 {
		return nil, fmt.Errorf("nets: tree has %d vertices but only %d reachable from root (cycle or disconnect)", len(adj), len(order))
	}
	if len(tr.Steps) != 0 && len(adj) != len(tr.Steps)+1 {
		return nil, fmt.Errorf("nets: %d edges over %d vertices is not a tree", len(tr.Steps), len(adj))
	}
	for i, s := range in.Sinks {
		if _, ok := parent[s.V]; !ok && s.V != in.Root {
			return nil, fmt.Errorf("nets: sink %d (vertex %d) not in tree", i, s.V)
		}
	}

	// Subtree sink weights, bottom-up.
	subW := make(map[grid.V]float64, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		w := subW[v]
		for _, si := range sinksAt[v] {
			w += in.Sinks[si].W
		}
		subW[v] = w
		if v != in.Root {
			subW[parent[v]] += w
		}
	}

	// Top-down delay propagation. delayTo[v] is delay from root to v
	// including all penalties accumulated on the way.
	delayTo := make(map[grid.V]float64, len(order))
	for _, v := range order {
		d := delayTo[v]
		// Groups at v: one per child edge, one per sink hosted at v.
		var ws []float64
		var childEdges []refHalfEdge
		for _, he := range adj[v] {
			if he.to != v && parent[he.to] == v {
				childEdges = append(childEdges, he)
				ws = append(ws, subW[he.to])
			}
		}
		hosted := sinksAt[v]
		for _, si := range hosted {
			ws = append(ws, in.Sinks[si].W)
		}
		pen := SplitPenalties(in.DBif, in.Eta, ws)
		for i, he := range childEdges {
			delayTo[he.to] = d + pen[i] + in.C.ArcDelay(he.arc)
		}
		for i, si := range hosted {
			ev.SinkDelay[si] = d + pen[len(childEdges)+i]
		}
	}
	for i, s := range in.Sinks {
		ev.DelayCost += s.W * ev.SinkDelay[i]
	}
	ev.Total = ev.CongCost + ev.DelayCost
	return ev, nil
}

// rootedGraph is the grid of the reference tests: two wire types on the
// lower layers, so parallel arcs exist, and every segment priced apart.
func rootedGraph(nx, ny int32) (*grid.Graph, *grid.Costs) {
	wires := []grid.WireType{
		{Name: "n", CostPerGCell: 1, DelayPerGCell: 10, CapUse: 1},
		{Name: "w", CostPerGCell: 2.5, DelayPerGCell: 4.5, CapUse: 2},
	}
	g := grid.New(nx, ny, []grid.Layer{
		{Name: "M1", Dir: grid.DirH, Wires: wires, SegCap: 10, ViaCap: 10, ViaCost: 0.5, ViaDelay: 2, ViaCapUse: 1},
		{Name: "M2", Dir: grid.DirV, Wires: wires, SegCap: 10, ViaCap: 10, ViaCost: 0.75, ViaDelay: 1.5, ViaCapUse: 1},
		{Name: "M3", Dir: grid.DirH, Wires: wires[:1], SegCap: 10},
	}, 50)
	c := grid.NewCosts(g)
	rng := rand.New(rand.NewPCG(24, 1))
	for i := range c.Mult {
		c.Mult[i] = 1 + float32(rng.IntN(64))/16
	}
	return g, c
}

func arcsFrom(g *grid.Graph, v grid.V) []grid.Arc {
	var out []grid.Arc
	g.Arcs(v, g.FullWindow(), func(a grid.Arc) bool {
		out = append(out, a)
		return true
	})
	return out
}

// selfLoop is a step from v to v over the wire of v's first arc.
func selfLoop(g *grid.Graph, v grid.V) Step {
	a := arcsFrom(g, v)[0]
	a.To = v
	return Step{From: v, Arc: a}
}

// reversed is the same edge walked the other way. Arcs carry nothing
// but To that depends on the direction, so it is also a graph arc.
func reversed(st Step) Step {
	a := st.Arc
	a.To = st.From
	return Step{From: st.Arc.To, Arc: a}
}

// snake returns the first n steps of the path that sweeps the grid row
// by row on M1, changing rows over M2.
func snake(g *grid.Graph, n int) []Step {
	var steps []Step
	v := g.At(0, 0, 0)
	to := func(w grid.V) {
		for _, a := range arcsFrom(g, v) {
			if a.To == w {
				steps, v = append(steps, Step{From: v, Arc: a}), w
				return
			}
		}
		panic(fmt.Sprintf("no arc %d->%d", v, w))
	}
	for y := int32(0); y < g.NY; y++ {
		for i := int32(1); i < g.NX; i++ {
			x := i
			if y%2 == 1 {
				x = g.NX - 1 - i
			}
			to(g.At(x, y, 0))
		}
		if y+1 < g.NY {
			x, _, _ := g.XYL(v)
			to(g.At(x, y, 1))
			to(g.At(x, y+1, 1))
			to(g.At(x, y+1, 0))
		}
	}
	return steps[:n]
}

// genRootedCase draws one instance and step multiset: a random tree
// grown from the root with its steps in either orientation, and in two
// cases of three made a mess of — repeated edges both ways round,
// parallel arcs on the other wire type, self-loops, chords, a component
// the root does not reach — in random step order. Sinks sit on tree
// vertices, on the root, on each other and, rarely, anywhere.
func genRootedCase(g *grid.Graph, c *grid.Costs, rng *rand.Rand) (*Instance, []Step) {
	nv := int(g.NumV())
	in := &Instance{
		G: g, C: c, Win: g.FullWindow(),
		Root: grid.V(rng.IntN(nv)),
		DBif: 2.5 * float64(rng.IntN(4)),
		Eta:  0.25 * float64(rng.IntN(3)),
	}
	visited := map[grid.V]bool{in.Root: true}
	var steps []Step
	put := func(st Step) { steps = slices.Insert(steps, rng.IntN(len(steps)+1), st) }
	grow := func(verts []grid.V, n int, chords bool) []grid.V {
		for ; n > 0; n-- {
			u := verts[rng.IntN(len(verts))]
			arcs := arcsFrom(g, u)
			st := Step{From: u, Arc: arcs[rng.IntN(len(arcs))]}
			if visited[st.Arc.To] && !chords {
				continue
			}
			if !visited[st.Arc.To] {
				visited[st.Arc.To] = true
				verts = append(verts, st.Arc.To)
			}
			if rng.IntN(2) == 0 {
				st = reversed(st)
			}
			steps = append(steps, st)
		}
		return verts
	}
	mess := rng.IntN(3)
	verts := grow([]grid.V{in.Root}, rng.IntN(70), mess == 2)
	if mess > 0 {
		for k := rng.IntN(4); k > 0 && len(steps) > 0; k-- {
			st := steps[rng.IntN(len(steps))]
			if rng.IntN(2) == 0 {
				st = reversed(st)
			}
			if wires := len(g.Layers[st.Arc.L].Wires); !st.Arc.Via && wires > 1 && rng.IntN(2) == 0 {
				st.Arc.WT = (st.Arc.WT + 1) % int8(wires)
			}
			put(st)
		}
		for k := rng.IntN(3); k > 0; k-- {
			put(selfLoop(g, grid.V(rng.IntN(nv))))
		}
		if rng.IntN(3) == 0 {
			if v := grid.V(rng.IntN(nv)); !visited[v] {
				visited[v] = true
				grow([]grid.V{v}, 1+rng.IntN(6), true)
			}
		}
		if rng.IntN(2) == 0 {
			rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
		}
	}
	for k := rng.IntN(7); k > 0; k-- {
		v := verts[rng.IntN(len(verts))]
		switch p := rng.IntN(40); {
		case p < 6:
			v = in.Root
		case p < 12 && len(in.Sinks) > 0:
			v = in.Sinks[rng.IntN(len(in.Sinks))].V
		case p == 12:
			v = grid.V(rng.IntN(nv))
		}
		in.Sinks = append(in.Sinks, Sink{V: v, W: float64(rng.IntN(96)) / 32})
	}
	return in, steps
}

func sameEval(a, b *Eval) bool {
	bits := math.Float64bits
	return a.WireSteps == b.WireSteps && a.Vias == b.Vias &&
		bits(a.CongCost) == bits(b.CongCost) && bits(a.DelayCost) == bits(b.DelayCost) &&
		bits(a.Total) == bits(b.Total) && bits(a.TrackGCells) == bits(b.TrackGCells) &&
		slices.EqualFunc(a.SinkDelay, b.SinkDelay, func(x, y float64) bool { return bits(x) == bits(y) })
}

// checkPrune holds PruneToTree to its reference on one step multiset
// and returns the pruned tree, nil when both refuse.
func checkPrune(t testing.TB, in *Instance, steps []Step) *RTree {
	t.Helper()
	got, err := PruneToTree(in, steps)
	want, wantErr := refPruneToTree(in, slices.Clone(steps))
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("PruneToTree error %v, reference %v", err, wantErr)
	}
	if err != nil {
		return nil
	}
	if !slices.Equal(got.Steps, want.Steps) {
		t.Fatalf("PruneToTree kept %d steps, reference %d:\n%v\n%v", len(got.Steps), len(want.Steps), got.Steps, want.Steps)
	}
	return got
}

// checkEvaluate holds Evaluate to its reference on one step list and
// reports whether both accepted it.
func checkEvaluate(t testing.TB, in *Instance, tr *RTree) bool {
	t.Helper()
	got, err := Evaluate(in, tr)
	want, wantErr := refEvaluate(in, tr)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("Evaluate error %v, reference %v", err, wantErr)
	}
	if err == nil && !sameEval(got, want) {
		t.Fatalf("Evaluate %+v, reference %+v", got, want)
	}
	return err == nil
}

// fixedRootedCases are the shapes the random draw is unlikely to hit:
// no steps at all with the sinks on and off the root, a root the steps
// never touch, a two-cycle with a tree's edge count, and a chain with
// every edge doubled.
func fixedRootedCases(g *grid.Graph, c *grid.Costs) (ins []*Instance, stepLists [][]Step) {
	add := func(root grid.V, steps []Step, sinks ...grid.V) {
		in := &Instance{G: g, C: c, Win: g.FullWindow(), Root: root, DBif: 4, Eta: 0.25}
		for i, v := range sinks {
			in.Sinks = append(in.Sinks, Sink{V: v, W: float64(i+1) / 2})
		}
		ins, stepLists = append(ins, in), append(stepLists, steps)
	}
	path := snake(g, 30)
	add(path[0].From, nil)
	add(path[0].From, nil, path[0].From, path[0].From)
	add(path[0].From, nil, path[0].From, path[0].Arc.To)
	add(path[9].From, path[:4], path[2].From)
	add(path[0].From, []Step{path[0], reversed(path[0]), path[5]}, path[0].Arc.To)
	var doubled []Step
	for _, st := range path {
		doubled = append(doubled, st, st)
	}
	add(path[0].From, doubled, path[29].Arc.To)
	add(path[0].From, path, path[29].Arc.To, path[12].From, path[12].From)
	return ins, stepLists
}

// TestPruneToTreeMatchesReference drives seeded step multisets through
// PruneToTree and the map-based reference: the same refusals, the same
// steps in the same order and orientation.
func TestPruneToTreeMatchesReference(t *testing.T) {
	g, c := rootedGraph(6, 6)
	rng := rand.New(rand.NewPCG(24, 2))
	pruned := 0
	for it := 0; it < 600; it++ {
		in, steps := genRootedCase(g, c, rng)
		if checkPrune(t, in, steps) != nil {
			pruned++
		}
	}
	if pruned < 400 {
		t.Fatalf("only %d of 600 drawn cases prune to a tree", pruned)
	}
	ins, stepLists := fixedRootedCases(g, c)
	for i, in := range ins {
		checkPrune(t, in, stepLists[i])
	}

	// A dangling chain of more than 2000 steps behind the only sink: the
	// reference peels it one edge per pass.
	g, c = rootedGraph(52, 40)
	chain := snake(g, 2100)
	in := &Instance{G: g, C: c, Win: g.FullWindow(), Root: chain[0].From, Sinks: []Sink{{V: chain[4].Arc.To, W: 1}}}
	if tr := checkPrune(t, in, chain); len(tr.Steps) != 5 {
		t.Fatalf("chain pruned to %d steps, want 5", len(tr.Steps))
	}
}

// TestEvaluateMatchesReference holds Evaluate to the map-based
// reference, every Eval field to the last bit: on the drawn step lists
// as they are (trees with dangling stubs in any step order, and the
// non-trees both must refuse), on what PruneToTree makes of them, and
// on that tree with a stub hung on and with its last step repeated.
func TestEvaluateMatchesReference(t *testing.T) {
	g, c := rootedGraph(6, 6)
	rng := rand.New(rand.NewPCG(24, 3))
	raw := 0
	check := func(in *Instance, steps []Step) {
		if checkEvaluate(t, in, &RTree{Steps: steps}) {
			raw++
		}
		tr, err := PruneToTree(in, steps)
		if err != nil {
			return
		}
		if !checkEvaluate(t, in, tr) {
			t.Fatal("PruneToTree's output refused")
		}
		if n := len(tr.Steps); n > 0 {
			checkEvaluate(t, in, &RTree{Steps: append(slices.Clone(tr.Steps), reversed(tr.Steps[n-1]))})
			for _, a := range arcsFrom(g, tr.Steps[rng.IntN(n)].Arc.To) {
				checkEvaluate(t, in, &RTree{Steps: append(slices.Clone(tr.Steps), Step{From: tr.Steps[n-1].Arc.To, Arc: a})})
			}
		}
	}
	for it := 0; it < 600; it++ {
		check(genRootedCase(g, c, rng))
	}
	if raw < 150 {
		t.Fatalf("only %d of 600 drawn step lists are trees as they stand", raw)
	}
	ins, stepLists := fixedRootedCases(g, c)
	for i, in := range ins {
		check(in, stepLists[i])
	}

	g, c = rootedGraph(52, 40)
	chain := snake(g, 2100)
	in := &Instance{G: g, C: c, Win: g.FullWindow(), Root: chain[0].From, DBif: 3, Eta: 0.25,
		Sinks: []Sink{{V: chain[2099].Arc.To, W: 1}, {V: chain[1000].From, W: 0.5}}}
	if !checkEvaluate(t, in, &RTree{Steps: chain}) {
		t.Fatal("chain refused")
	}
}

// TestEvaluateAllocationBound: on a 60-step tree with 8 sinks Evaluate
// allocates its Eval, the SinkDelay slice and whatever SplitPenalties
// allocates for the weights at each branching — the rooting and the
// per-node passes run on pooled slices.
func TestEvaluateAllocationBound(t *testing.T) {
	g, c := rootedGraph(6, 6)
	rng := rand.New(rand.NewPCG(24, 4))
	in := &Instance{G: g, C: c, Win: g.FullWindow(), Root: g.At(2, 3, 1), DBif: 4, Eta: 0.25}
	visited := map[grid.V]bool{in.Root: true}
	verts := []grid.V{in.Root}
	tr := &RTree{}
	for len(tr.Steps) < 60 {
		u := verts[rng.IntN(len(verts))]
		arcs := arcsFrom(g, u)
		if a := arcs[rng.IntN(len(arcs))]; !visited[a.To] {
			visited[a.To] = true
			verts, tr.Steps = append(verts, a.To), append(tr.Steps, Step{From: u, Arc: a})
		}
	}
	for i := 0; i < 8; i++ {
		in.Sinks = append(in.Sinks, Sink{V: verts[1+rng.IntN(60)], W: float64(1+i) / 4})
	}

	// The group weights Evaluate hands to SplitPenalties, node by node.
	var r Rooted
	r.Build(in.Root, tr.Steps, in.Sinks)
	w := make([]float64, r.N())
	for i := int32(r.N()) - 1; i >= 0; i-- {
		for _, si := range r.SinksAt(i) {
			w[i] += in.Sinks[si].W
		}
		if i > 0 {
			w[r.Parent[i]] += w[i]
		}
	}
	var groups [][]float64
	for i := int32(0); i < int32(r.N()); i++ {
		ws := slices.Clone(w[r.KidOff[i]:r.KidOff[i+1]])
		for _, si := range r.SinksAt(i) {
			ws = append(ws, in.Sinks[si].W)
		}
		if len(ws) > 1 {
			groups = append(groups, ws)
		}
	}
	if len(groups) < 4 {
		t.Fatalf("fixture branches at %d nodes only", len(groups))
	}
	// The fewest of several single runs: the pool loses its scratch to a
	// collection, and under -race to a quarter of its Puts, and the call
	// after that regrows it.
	least := func(f func()) float64 {
		n := math.Inf(1)
		for i := 0; i < 16; i++ {
			n = min(n, testing.AllocsPerRun(1, f))
		}
		return n
	}
	split := least(func() {
		for _, ws := range groups {
			SplitPenalties(in.DBif, in.Eta, ws)
		}
	})
	eval := least(func() {
		if _, err := Evaluate(in, tr); err != nil {
			t.Fatal(err)
		}
	})
	if eval != split+2 {
		t.Fatalf("Evaluate allocates %v times, want the Eval, its SinkDelay and SplitPenalties' %v", eval, split)
	}
}

// The fuzzed document of FuzzPruneEvaluate, every field one byte reduced
// modulo its range, missing bytes reading as zero:
//
//	root vertex · dbif (/8) · eta (mod 3, /4) · sink count (mod 7), then per sink: vertex · weight (/32)
//	steps until the input ends (at most 512): from vertex · arc
//
// where arc picks one of the arcs leaving the vertex or, one past the
// last, the self-loop.
func decodeRootedDoc(g *grid.Graph, c *grid.Costs, data []byte) (*Instance, []Step) {
	u8 := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nv := int(g.NumV())
	in := &Instance{G: g, C: c, Win: g.FullWindow(), Root: grid.V(u8() % nv), DBif: float64(u8()) / 8, Eta: float64(u8()%3) / 4}
	in.Sinks = make([]Sink, u8()%7)
	for i := range in.Sinks {
		in.Sinks[i] = Sink{V: grid.V(u8() % nv), W: float64(u8()) / 32}
	}
	var steps []Step
	for len(data) > 0 && len(steps) < 512 {
		v := grid.V(u8() % nv)
		arcs := arcsFrom(g, v)
		if k := u8() % (len(arcs) + 1); k < len(arcs) {
			steps = append(steps, Step{From: v, Arc: arcs[k]})
		} else {
			steps = append(steps, selfLoop(g, v))
		}
	}
	return in, steps
}

func encodeRootedDoc(g *grid.Graph, in *Instance, steps []Step) []byte {
	b := []byte{byte(in.Root), byte(in.DBif * 8), byte(in.Eta * 4), byte(len(in.Sinks))}
	for _, s := range in.Sinks {
		b = append(b, byte(s.V), byte(s.W*32))
	}
	for _, st := range steps {
		arcs := arcsFrom(g, st.From)
		k := slices.Index(arcs, st.Arc)
		if st.Arc.To == st.From {
			k = len(arcs)
		}
		b = append(b, byte(st.From), byte(k))
	}
	return b
}

// FuzzPruneEvaluate drives raw step lists over a 6×6×3 grid through
// PruneToTree and Evaluate: neither may panic, both must agree with the
// map-based references, and what PruneToTree returns Evaluate accepts.
func FuzzPruneEvaluate(f *testing.F) {
	g, c := rootedGraph(6, 6)
	rng := rand.New(rand.NewPCG(24, 5))
	for it := 0; it < 24; it++ {
		in, steps := genRootedCase(g, c, rng)
		f.Add(encodeRootedDoc(g, in, steps))
	}
	ins, stepLists := fixedRootedCases(g, c)
	for i, in := range ins {
		f.Add(encodeRootedDoc(g, in, stepLists[i]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, steps := decodeRootedDoc(g, c, data)
		checkEvaluate(t, in, &RTree{Steps: steps})
		if tr := checkPrune(t, in, steps); tr != nil && !checkEvaluate(t, in, tr) {
			t.Fatal("PruneToTree's output refused")
		}
	})
}

// TestRootedDocRoundTrip keeps the fuzz seeds honest: a drawn case
// survives the document format unchanged.
func TestRootedDocRoundTrip(t *testing.T) {
	g, c := rootedGraph(6, 6)
	rng := rand.New(rand.NewPCG(24, 5))
	for it := 0; it < 24; it++ {
		in, steps := genRootedCase(g, c, rng)
		in2, steps2 := decodeRootedDoc(g, c, encodeRootedDoc(g, in, steps))
		if in2.Root != in.Root || in2.DBif != in.DBif || in2.Eta != in.Eta || !slices.Equal(in2.Sinks, in.Sinks) || !slices.Equal(steps2, steps) {
			t.Fatalf("case %d changed in the document format", it)
		}
	}
}

// refRooted is the sort-based Rooted.Build that the open-addressing
// vertex table replaced, verbatim but for the ref prefix: vertex ids
// are positions in the sorted distinct vertices, found by binary search.
// TestRootedMatchesSortedIDs holds the table-based Build to it.
type refRooted struct {
	Parent, Step         []int32
	KidOff               []int32
	Host, SinkOff, Sinks []int32

	steps                        int
	verts                        []grid.V
	ends, half, off, node, order []int32
}

func (r *refRooted) id(v grid.V) int32 {
	i, _ := slices.BinarySearch(r.verts, v)
	return int32(i)
}

func (r *refRooted) Build(root grid.V, steps []Step, sinks []Sink) {
	vs := append(room(r.verts, 2*len(steps)+1), root)
	for _, st := range steps {
		vs = append(vs, st.From, st.Arc.To)
	}
	slices.Sort(vs)
	vs = slices.Compact(vs)
	r.verts, r.steps = vs, len(steps)
	nv := len(vs)

	// off[v+2] first counts v's half-edges; off[v+1] then runs as v's
	// fill cursor and ends on the start of v+1: the offsets, one slot down.
	off := sized(r.off, nv+2)
	clear(off)
	ends := room(r.ends, 2*len(steps))
	for _, st := range steps {
		a, b := r.id(st.From), r.id(st.Arc.To)
		ends = append(ends, a, b)
		off[a+2]++
		off[b+2]++
	}
	for v := 0; v < nv; v++ {
		off[v+2] += off[v+1]
	}
	half := sized(r.half, len(ends))
	for h, v := range ends {
		half[off[v+1]] = int32(h)
		off[v+1]++
	}
	r.ends, r.half, r.off = ends, half, off

	node := sized(r.node, nv)
	for v := range node {
		node[v] = -1
	}
	rootID := r.id(root)
	node[rootID] = 0
	order := append(room(r.order, nv), rootID)
	r.Parent, r.Step, r.KidOff = append(room(r.Parent, nv), -1), append(room(r.Step, nv), -1), room(r.KidOff, nv+1)
	for i := 0; i < len(order); i++ {
		r.KidOff = append(r.KidOff, int32(len(order)))
		v := order[i]
		for _, h := range half[off[v]:off[v+1]] {
			if c := ends[h^1]; node[c] < 0 {
				node[c] = int32(len(order))
				order = append(order, c)
				r.Parent, r.Step = append(r.Parent, int32(i)), append(r.Step, h>>1)
			}
		}
	}
	r.KidOff = append(r.KidOff, int32(len(order)))
	r.node, r.order = node, order

	// The same count-then-cursor layout for the hosted sinks.
	n := len(order)
	sinkOff := sized(r.SinkOff, n+2)
	clear(sinkOff)
	r.Host = room(r.Host, len(sinks))
	for _, s := range sinks {
		h := int32(-1)
		if id, ok := slices.BinarySearch(vs, s.V); ok {
			h = node[id]
		}
		r.Host = append(r.Host, h)
		if h >= 0 {
			sinkOff[h+2]++
		}
	}
	for i := 0; i < n; i++ {
		sinkOff[i+2] += sinkOff[i+1]
	}
	r.Sinks = sized(r.Sinks, int(sinkOff[n+1]))
	for s, h := range r.Host {
		if h >= 0 {
			r.Sinks[sinkOff[h+1]] = int32(s)
			sinkOff[h+1]++
		}
	}
	r.SinkOff = sinkOff
}

func (r *refRooted) N() int { return len(r.order) }

func (r *refRooted) IsTree() bool {
	return len(r.order) == len(r.verts) && r.steps == len(r.verts)-1
}

func (r *refRooted) Vertex(i int32) grid.V { return r.verts[r.order[i]] }

// checkRooted builds one step multiset with Rooted and the sort-based
// reference and fails on the first field that differs.
func checkRooted(t *testing.T, r *Rooted, ref *refRooted, root grid.V, steps []Step, sinks []Sink) {
	t.Helper()
	r.Build(root, steps, sinks)
	ref.Build(root, steps, sinks)
	for _, f := range []struct {
		name      string
		got, want []int32
	}{
		{"Parent", r.Parent, ref.Parent}, {"Step", r.Step, ref.Step}, {"KidOff", r.KidOff, ref.KidOff},
		{"Host", r.Host, ref.Host}, {"SinkOff", r.SinkOff, ref.SinkOff}, {"Sinks", r.Sinks, ref.Sinks},
	} {
		if !slices.Equal(f.got, f.want) {
			t.Fatalf("%s %v, reference %v (%d steps from root %d)", f.name, f.got, f.want, len(steps), root)
		}
	}
	if r.N() != ref.N() || r.IsTree() != ref.IsTree() {
		t.Fatalf("N %d IsTree %v, reference N %d IsTree %v", r.N(), r.IsTree(), ref.N(), ref.IsTree())
	}
	for i := int32(0); i < int32(r.N()); i++ {
		if r.Vertex(i) != ref.Vertex(i) {
			t.Fatalf("node %d is vertex %d, reference %d", i, r.Vertex(i), ref.Vertex(i))
		}
	}
}

// collidingSteps returns n disjoint steps whose 2n endpoints, the first
// of them the root, all hash to one starting slot of the table Build
// sizes for n steps.
func collidingSteps(n int) []Step {
	var sizing Rooted
	sizing.Build(0, make([]Step, n), nil)
	home := func(v grid.V) uint64 { return uint64(uint32(v)) * hashMul >> sizing.shift }
	var verts []grid.V
	for v := grid.V(0); len(verts) < 2*n; v++ {
		if home(v) == home(0) {
			verts = append(verts, v)
		}
	}
	steps := make([]Step, n)
	for i := range steps {
		steps[i] = Step{From: verts[2*i], Arc: grid.Arc{To: verts[2*i+1]}}
	}
	return steps
}

// TestRootedMatchesSortedIDs holds Build, whose vertex ids come from an
// open-addressing table in order of first appearance, to the sort-based
// reference above: Parent, Step, KidOff, Host, SinkOff, Sinks, every
// node's vertex, N and IsTree, on the step multisets and fixed cases of
// TestPruneToTreeMatchesReference and on a list whose every vertex hashes
// to the same starting slot. On that list Build must stay linear: its
// table probes are held to a small multiple of its lookups.
func TestRootedMatchesSortedIDs(t *testing.T) {
	var r Rooted
	var ref refRooted
	g, c := rootedGraph(6, 6)
	rng := rand.New(rand.NewPCG(24, 2))
	for it := 0; it < 600; it++ {
		in, steps := genRootedCase(g, c, rng)
		checkRooted(t, &r, &ref, in.Root, steps, in.Sinks)
	}
	ins, stepLists := fixedRootedCases(g, c)
	for i, in := range ins {
		checkRooted(t, &r, &ref, in.Root, stepLists[i], in.Sinks)
	}
	g, _ = rootedGraph(52, 40)
	chain := snake(g, 2100)
	checkRooted(t, &r, &ref, chain[0].From, chain, []Sink{{V: chain[2099].Arc.To}, {V: chain[1000].From}})

	for _, n := range []int{1, 40, 1024} {
		steps := collidingSteps(n)
		sinks := []Sink{{V: steps[0].Arc.To}, {V: steps[n-1].From}, {V: steps[n-1].Arc.To + 1}}
		checkRooted(t, &r, &ref, steps[0].From, steps, sinks)
		lookups := 1 + 2*n + len(sinks)
		if r.probes > 3*lookups {
			t.Fatalf("%d steps on one starting slot: %d probes for %d lookups, want at most %d", n, r.probes, lookups, 3*lookups)
		}
	}
}

// BenchmarkRootedBuild roots one tree the size of an average cold-route
// net (c1 at scale 0.01 averages 24 steps a tree) with four sinks, on
// one reused Rooted: after the first Build it allocates nothing.
func BenchmarkRootedBuild(b *testing.B) {
	g, _ := rootedGraph(6, 6)
	rng := rand.New(rand.NewPCG(24, 6))
	root := g.At(2, 3, 1)
	visited := map[grid.V]bool{root: true}
	verts := []grid.V{root}
	var steps []Step
	for len(steps) < 24 {
		u := verts[rng.IntN(len(verts))]
		arcs := arcsFrom(g, u)
		if a := arcs[rng.IntN(len(arcs))]; !visited[a.To] {
			visited[a.To] = true
			verts, steps = append(verts, a.To), append(steps, Step{From: u, Arc: a})
		}
	}
	sinks := []Sink{{V: verts[5], W: 1}, {V: verts[11], W: 1}, {V: verts[17], W: 1}, {V: verts[24], W: 1}}
	var r Rooted
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Build(root, steps, sinks)
	}
	if !r.IsTree() || r.N() != 25 {
		b.Fatalf("fixture roots to %d nodes (tree %v), want a 25-node tree", r.N(), r.IsTree())
	}
}

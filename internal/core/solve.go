package core

import (
	"fmt"
	"math/rand/v2"

	"costdist/internal/dsu"
	"costdist/internal/future"
	"costdist/internal/geom"
	"costdist/internal/grid"
	"costdist/internal/heaps"
	"costdist/internal/nets"
	"costdist/internal/sparse"
)

// seedStream is the fixed PCG stream constant; every instance seed
// selects a state on this stream.
const seedStream = 0x9E3779B97F4A7C15

// Solve runs the cost-distance algorithm on the instance and returns the
// embedded Steiner tree.
func Solve(in *nets.Instance, opt Options) (*nets.RTree, error) {
	return SolveTraced(in, opt, nil)
}

// SolveTraced is Solve with a per-merge trace callback (used for the
// Figure 3 reproduction and debugging). The callback may be nil.
//
// When opt.Scratch is non-nil the solver runs out of that arena,
// recycling component, queue and label storage from earlier calls; the
// result is bit-identical to a scratch-free solve.
func SolveTraced(in *nets.Instance, opt Options, trace func(TraceEvent)) (*nets.RTree, error) {
	scr := opt.Scratch
	if scr == nil {
		scr = NewScratch()
	}
	return scr.solve(in, opt, trace)
}

// solve resets the arena's solver state for one instance and runs the
// merge loop.
func (scr *Scratch) solve(in *nets.Instance, opt Options, trace func(TraceEvent)) (*nets.RTree, error) {
	if err := in.G.CheckCodeWidth(); err != nil {
		return nil, err
	}
	s := &scr.sol
	scr.release()
	// Drop instance references on return: a pooled arena must not pin
	// the last instance's graph and costs (the dominant memory of a
	// chip) across idle periods or into the next chip of a suite.
	defer func() {
		s.in, s.g, s.costs, s.trace = nil, nil, nil, nil
		s.opt = Options{}
	}()
	s.in, s.opt = in, opt
	s.g, s.costs = in.G, in.C
	s.trace = trace
	s.steps = s.steps[:0]
	s.activeW, s.alive, s.iter = 0, 0, 0
	s.rng = scr.reseed(in.Seed)
	s.targets.Reset(in.C)

	// Dense index window over everything the solve can touch: movement is
	// confined to in.Win, and searches seed at terminals, which the
	// instance parser places inside the window (the union below is
	// defensive and free). Labels and owners are keyed by window index so
	// lookups need no hashing and neighbor indices are one addition away.
	idxRect := in.Win.Add(in.G.Pt(in.Root))
	for _, sk := range in.Sinks {
		idxRect = idxRect.Add(in.G.Pt(sk.V))
	}
	s.win = in.G.NewWindow(idxRect)
	s.winW = idxRect.W()
	s.winWH = s.winW * idxRect.H()
	// int math: Window.Size would overflow int32 on huge windows.
	s.winSize = int(idxRect.W()) * int(idxRect.H()) * len(in.G.Layers)
	s.owner.Reset(s.winSize)
	s.flat.Reset()
	if n := s.winWH; cap(s.hMemo) < int(n) {
		s.hMemo = make([]hSlot, n)
	} else {
		s.hMemo = s.hMemo[:n]
	}
	s.nextTargets()

	// Root component (id 0).
	root := scr.newComp()
	root.alive, root.isRoot = true, true
	root.rep = in.Root
	s.targets.Add(0, ptRect(in.G.Pt(in.Root)))
	s.comps = append(s.comps, root)
	s.owner.Put(s.win.Index(in.Root), 0)

	// Sink components, grouped by vertex (coincident sinks share one
	// component, their weights adding in input order); sinks at the root
	// vertex are already connected. The ownership stamps double as the
	// grouping index, so setup needs no scratch hash map.
	for _, sk := range in.Sinks {
		if sk.V == in.Root {
			continue
		}
		idx := s.win.Index(sk.V)
		if id, ok := s.owner.Get(idx); ok {
			s.comps[id].weight += sk.W
			continue
		}
		c := scr.newComp()
		c.id = int32(len(s.comps))
		c.weight = sk.W
		c.alive = true
		c.rep = sk.V
		s.targets.Add(c.id, ptRect(in.G.Pt(sk.V)))
		s.comps = append(s.comps, c)
		s.owner.Put(idx, c.id)
	}
	for _, c := range s.comps[1:] {
		s.activeW += c.weight
		s.alive++
	}

	if s.sets == nil {
		s.sets = dsu.New(len(s.comps))
	} else {
		s.sets.Reset(len(s.comps))
	}
	if s.top == nil {
		s.top = heaps.NewIndexed(len(s.comps))
		s.rootTop = heaps.NewIndexed(len(s.comps))
	} else {
		s.top.Reset(len(s.comps))
		s.rootTop.Reset(len(s.comps))
	}
	for _, c := range s.comps[1:] {
		s.startSearch(c)
	}

	for s.alive > 0 {
		if err := s.step(); err != nil {
			return nil, err
		}
	}
	scr.Solves++
	// Stale label chains (settled before a vertex was claimed by a later
	// merge) can make reconstructed paths re-use existing tree edges;
	// pruning deduplicates and keeps a spanning tree, which only removes
	// congestion cost.
	return nets.PruneToTree(in, s.steps)
}

// ptRect is the degenerate bounding box of a single point.
func ptRect(p geom.Pt) geom.Rect {
	return geom.Rect{X0: p.X, Y0: p.Y, X1: p.X, Y1: p.Y}
}

type solver struct {
	scr *Scratch

	in    *nets.Instance
	opt   Options
	g     *grid.Graph
	costs *grid.Costs

	comps   []*comp
	sets    *dsu.DSU
	top     *heaps.Indexed
	rootTop *heaps.Indexed
	flat    heaps.Lazy[flatEntry]

	// owner maps a vertex's window index to the id of the component that
	// claimed it (resolveOwner follows merges from there).
	owner sparse.FlatI32

	// win indexes every vertex the solve can touch densely; winW and
	// winWH are its x and x·y strides for O(1) neighbor index steps.
	win     grid.Window
	winW    int32
	winWH   int32
	winSize int

	activeW float64
	alive   int
	iter    int
	steps   []nets.Step
	// Recycled buffers of merge's connection path: its vertices and their
	// window indices.
	pathBuf    []grid.V
	pathIdxBuf []int32

	// targets holds the bounding boxes of the alive components, the
	// root's included: the §III-C future cost of a label is the bound to
	// the nearest of them other than its own component's.
	targets future.Targets
	// hMemo memoizes that bound per plane position of the index window
	// (winW × H slots, row-major): h reads a slot as current while its
	// gen is targetsGen's current stamp and its comp the searching
	// component. targetsGen advances whenever the live-target table
	// changes — at solve start and after each merge's Add.
	hMemo      []hSlot
	targetsGen sparse.Gen
	// auditH, when set, sees every future cost the memo answers (tests
	// hold it against a fresh Targets.Est).
	auditH func(c *comp, x, y int32, h float64)

	rng   *rand.Rand
	trace func(TraceEvent)
}

// hSlot is one plane position's memoized future cost: h is
// Targets.Est for component comp under live-target generation gen. It is
// 16 B, and a 128×128 window's memo 256 KB.
type hSlot struct {
	h    float64
	gen  uint32
	comp int32
}

type flatEntry struct {
	comp int32
	e    entry
}

// resolveOwner returns the current alive component owning the vertex at
// window index idx, or -1.
func (s *solver) resolveOwner(idx int32) int32 {
	id, ok := s.owner.Get(idx)
	if !ok {
		return -1
	}
	return s.sets.Find(id)
}

// bConnect is the balanced bifurcation penalty b(u,v) of eq. (5) for a
// sink-to-sink connection.
func (s *solver) bConnect(c, j *comp) float64 {
	return nets.Beta(s.in.DBif, s.in.Eta, c.weight, j.weight)
}

// bRoot is b(u, r_i) for a root connection, minus the §III-E bonus.
func (s *solver) bRoot(c *comp) float64 {
	rest := s.activeW - c.weight
	if rest < 0 {
		rest = 0
	}
	b := nets.Beta(s.in.DBif, s.in.Eta, c.weight, rest)
	if s.opt.RootBonus {
		b -= s.in.Eta * s.in.DBif * c.weight
		if b < 0 {
			b = 0
		}
	}
	return b
}

// h is the admissible §III-C future cost of a label of component c at
// plane position (x, y); 0 when goal-oriented search is switched off.
// Est is a pure function of the live boxes, c's id and (x, y, c.ux,
// c.uy); a component's units are fixed in its startSearch and ids are
// never reused within a solve, so a slot tagged (generation, c.id)
// holds exactly what Est would return: the 8 layers of a gcell, and
// every search step back onto it, pay for one scan between merges.
func (s *solver) h(c *comp, x, y int32) float64 {
	if !s.opt.AStar {
		return 0
	}
	m := &s.hMemo[(y-s.win.R.Y0)*s.winW+x-s.win.R.X0]
	if m.gen == s.targetsGen.Cur() && m.comp == c.id {
		if s.auditH != nil {
			s.auditH(c, x, y, m.h)
		}
		return m.h
	}
	s.scr.Estimated++
	m.h = s.targets.Est(c.id, x, y, c.ux, c.uy)
	m.gen, m.comp = s.targetsGen.Cur(), c.id
	return m.h
}

// nextTargets opens a new live-target generation, retiring every memoized
// future cost. On the 32-bit wrap it clears the memo's whole capacity, so
// no slot of an earlier generation can read as current.
func (s *solver) nextTargets() {
	if _, wrapped := s.targetsGen.Next(); wrapped {
		clear(s.hMemo[:cap(s.hMemo)])
	}
}

// startSearch initializes component c's Dijkstra from its representative.
func (s *solver) startSearch(c *comp) {
	c.labels.Reset(&s.scr.pages, s.winSize)
	s.scr.lendQueue(c)
	c.hasRoot = false
	c.ux, c.uy = s.targets.Units(c.weight)
	s.scr.Searches++
	idx := s.win.Index(c.rep)
	lab, _ := c.labels.Put(idx)
	lab.Dist = 0
	lab.Code = grid.CodeSeed
	p := s.g.Pt(c.rep)
	s.push(c, s.h(c, p.X, p.Y), entry{g: 0, idx: idx, target: -1})
	s.refreshTop(c)
}

// push inserts an entry into c's queue (or the flat heap) under key: g
// plus the future cost for an expansion entry, g plus the bifurcation
// penalty for a connection entry.
func (s *solver) push(c *comp, key float64, e entry) {
	s.scr.Pushed++
	if s.opt.FlatHeap {
		s.flat.Push(key, flatEntry{comp: c.id, e: e})
		return
	}
	c.queue.Push(key, e)
}

// refreshTop purges stale entries from c's queue and publishes its
// current minimum to the top-level heap, implementing §III-B. c's root
// key is republished only when offerRoot moved it: otherwise it equals
// the key the root top heap holds (a shrinking active weight republishes
// every key in merge), and setting an equal key would move nothing.
func (s *solver) refreshTop(c *comp) {
	if s.opt.FlatHeap {
		return
	}
	if !c.alive || c.isRoot {
		s.top.Set(c.id, heaps.Inf)
		s.rootTop.Set(c.id, heaps.Inf)
		return
	}
	for c.queue.Len() > 0 {
		key, e := c.queue.Peek()
		fresh, repl, newKey, doRepush := s.validate(c, e, key)
		if fresh {
			break
		}
		c.queue.Pop()
		if doRepush {
			s.push(c, newKey, repl)
		}
	}
	if c.queue.Len() == 0 {
		s.top.Set(c.id, heaps.Inf)
	} else {
		s.top.Set(c.id, c.queue.MinKey())
	}
	if c.rootMoved {
		s.publishRoot(c)
	}
}

// publishRoot refreshes c's root-candidate key in the root top heap.
func (s *solver) publishRoot(c *comp) {
	c.rootMoved = false
	if !c.alive || c.isRoot || !c.hasRoot {
		s.rootTop.Set(c.id, heaps.Inf)
		return
	}
	s.rootTop.Set(c.id, c.rootG+s.bRoot(c))
}

// validate checks whether a queue entry is current. It returns
// fresh=true when the entry can be acted on with its stored key. A
// stale entry may come back as a corrected replacement (re-push with
// newKey); repush=false means drop it.
//
// Both kinds of entry resolve to the component j they reach: a
// connection entry's target as merged since, an expansion entry's
// vertex owner when another component has claimed the vertex since the
// label was pushed (the expansion becomes a connection there, at any
// vertex of j whatever Discount says). From there one rule applies: a
// root connection becomes c's root candidate, any other is re-keyed
// when its target id or penalty changed — always for a claimed
// expansion, whose e.target is -1.
func (s *solver) validate(c *comp, e entry, key float64) (fresh bool, repush entry, newKey float64, doRepush bool) {
	lab := c.labels.Get(e.idx)
	if lab == nil || e.g > lab.Dist+1e-12 {
		return false, entry{}, 0, false // superseded by a better label
	}
	var j int32
	if e.target < 0 {
		if lab.Perm {
			return false, entry{}, 0, false
		}
		if j = s.resolveOwner(e.idx); j < 0 || j == c.id {
			return true, entry{}, 0, false
		}
	} else if j = s.sets.Find(e.target); j == c.id {
		return false, entry{}, 0, false // target merged into us
	}
	jc := s.comps[j]
	if jc.isRoot {
		c.offerRoot(e.g, e.idx)
		return false, entry{}, 0, false
	}
	b := s.bConnect(c, jc)
	if j != e.target || e.g+b > key+1e-12 {
		return false, entry{g: e.g, idx: e.idx, target: j}, e.g + b, true
	}
	return true, entry{}, 0, false
}

// step processes one global event: either settles the globally minimal
// label (expanding its search) or commits the globally minimal
// connection (merging two components).
func (s *solver) step() error {
	c, e, isRoot, ok := s.popGlobal()
	if !ok {
		return fmt.Errorf("core: no events left with %d active components (disconnected window?)", s.alive)
	}
	if isRoot {
		return s.merge(c, s.comps[0].id, c.rootIdx, true)
	}
	if e.target >= 0 {
		return s.merge(c, s.sets.Find(e.target), e.idx, false)
	}
	s.expand(c, e)
	return nil
}

// popGlobal returns the next valid event.
func (s *solver) popGlobal() (*comp, entry, bool, bool) {
	if s.opt.FlatHeap {
		return s.popFlat()
	}
	for {
		slot, key := s.top.Min()
		rslot, rkey := s.rootTop.Min()
		if key == heaps.Inf && rkey == heaps.Inf {
			return nil, entry{}, false, false
		}
		if rkey <= key {
			c := s.comps[rslot]
			return c, entry{}, true, true
		}
		c := s.comps[slot]
		_, e := c.queue.Pop()
		fresh, repl, newKey, doRepush := s.validate(c, e, key)
		if !fresh {
			if doRepush {
				s.push(c, newKey, repl)
			}
			s.refreshTop(c)
			continue
		}
		s.refreshTop(c)
		return c, e, false, true
	}
}

// popFlat is the single-heap ablation of §III-B.
func (s *solver) popFlat() (*comp, entry, bool, bool) {
	for {
		// Root candidates: scan alive components (the ablation trades
		// top-level structure for linear scans).
		bestRoot := heaps.Inf
		var bestComp *comp
		for _, c := range s.comps {
			if c.alive && !c.isRoot && c.hasRoot {
				if k := c.rootG + s.bRoot(c); k < bestRoot {
					bestRoot, bestComp = k, c
				}
			}
		}
		if s.flat.Len() == 0 {
			if bestComp != nil {
				return bestComp, entry{}, true, true
			}
			return nil, entry{}, false, false
		}
		key, fe := s.flat.Peek()
		if bestRoot <= key {
			return bestComp, entry{}, true, true
		}
		s.flat.Pop()
		if s.sets.Find(fe.comp) != fe.comp {
			continue // entry from a search that has since merged
		}
		c := s.comps[fe.comp]
		if !c.alive || c.isRoot {
			continue
		}
		fresh, repl, newKey, doRepush := s.validate(c, fe.e, key)
		if !fresh {
			if doRepush {
				s.push(c, newKey, repl)
			}
			continue
		}
		return c, fe.e, false, true
	}
}

// expand settles e's vertex for component c and relaxes its outgoing arcs
// under the metric l_c = cost + w(c)·delay (eq. 4), with §III-A
// discounting. The entry carries only the window index; (x, y, layer) and
// the graph vertex are decoded from it here, once per settle. The
// directions are unrolled in the exact order grid.Arcs emits them (dir−,
// dir+, via-down, via-up): neighbor window indices come from stride
// arithmetic and each direction's label slot, congestion multiplier and
// future cost are looked up once, not per wire type. Every label written
// records the move in the grid predecessor code (grid.WireCode with the
// direction, grid.CodeViaDown, grid.CodeViaUp).
func (s *solver) expand(c *comp, e entry) {
	s.scr.Settled++
	lab := c.labels.Get(e.idx)
	lab.Perm = true
	fromOwn := s.resolveOwner(e.idx) == c.id
	g := s.g
	x, y, l := s.win.XYL(e.idx)
	v := g.At(x, y, l)
	lay := &g.Layers[l]
	win := s.in.Win
	if lay.Dir == grid.DirH {
		if x > win.X0 {
			s.relaxWire(c, &e, v-1, e.idx-1, x-1, y, 0, g.SegH(l, y, x-1), lay, fromOwn)
		}
		if x < win.X1 {
			s.relaxWire(c, &e, v+1, e.idx+1, x+1, y, 1, g.SegH(l, y, x), lay, fromOwn)
		}
	} else {
		if y > win.Y0 {
			s.relaxWire(c, &e, v-grid.V(g.NX), e.idx-s.winW, x, y-1, 0, g.SegV(l, x, y-1), lay, fromOwn)
		}
		if y < win.Y1 {
			s.relaxWire(c, &e, v+grid.V(g.NX), e.idx+s.winW, x, y+1, 1, g.SegV(l, x, y), lay, fromOwn)
		}
	}
	// Both via neighbours sit at (x, y): one future cost serves the two.
	hv := unset
	if l > 0 {
		s.relaxVia(c, &e, v-grid.V(g.NX*g.NY), e.idx-s.winWH, x, y, &hv, g.ViaSeg(l-1, x, y), l-1, grid.CodeViaDown, fromOwn)
	}
	if int(l)+1 < len(g.Layers) {
		s.relaxVia(c, &e, v+grid.V(g.NX*g.NY), e.idx+s.winWH, x, y, &hv, g.ViaSeg(l, x, y), l, grid.CodeViaUp, fromOwn)
	}
	s.refreshTop(c)
}

// unset marks a future cost not evaluated yet (real ones are ≥ 0): a
// direction pays for its bound only when it pushes a label.
const unset = -1.0

// relaxWire relaxes the wire move from e's vertex to `to` at plane
// position (tx, ty) across seg, toward the lower (dir 0) or the higher
// (dir 1) coordinate, once per wire type of the layer. The
// per-wire-type label check and write sequence is exactly the historical
// per-arc relax; the label lookup, multiplier load and future cost are
// hoisted. A settled neighbour is left first: no label can improve on
// it, so its owner is never resolved. The §III-A own-component move is
// the same loop with the congestion term zeroed, and whether the move
// connects is target's call.
func (s *solver) relaxWire(c *comp, e *entry, to grid.V, toIdx, tx, ty int32, dir int, seg int32, lay *grid.Layer, fromOwn bool) {
	lab := c.labels.Get(toIdx)
	if lab != nil && lab.Perm {
		return
	}
	own := s.resolveOwner(toIdx)
	mult := float64(s.costs.Mult[seg])
	if s.opt.Discount && own == c.id {
		// Own component: traversable at zero connection cost (§III-A),
		// but only along the component (no re-entry from outside, which
		// would close cycles).
		if !fromOwn {
			return
		}
		mult = 0
	}
	tgt := s.target(c, own, to)
	hv := unset
	existed := lab != nil
	if !existed {
		lab, _ = c.labels.Put(toIdx)
	}
	for wt := range lay.Wires {
		w := &lay.Wires[wt]
		ng := e.g + mult*w.CostPerGCell + c.weight*w.DelayPerGCell
		if existed && ng >= lab.Dist-1e-15 {
			continue
		}
		lab.Dist = ng
		lab.Perm = false
		lab.Code = grid.WireCode(wt, dir)
		existed = true
		if tgt >= 0 {
			s.pushConnect(c, ng, toIdx, tgt)
			continue
		}
		if hv == unset {
			hv = s.h(c, tx, ty)
		}
		s.push(c, ng+hv, entry{g: ng, idx: toIdx, target: -1})
	}
}

// relaxVia relaxes the via move from e's vertex to `to`, recording it as
// code; l names the lower layer, which owns the via's cost and delay.
// (x, y) is the plane position of both ends and *hv the future cost
// there, evaluated by whichever of the settled vertex's two vias pushes
// first. A settled neighbour is left first, as in relaxWire.
func (s *solver) relaxVia(c *comp, e *entry, to grid.V, toIdx, x, y int32, hv *float64, seg int32, l int32, code uint8, fromOwn bool) {
	lab := c.labels.Get(toIdx)
	if lab != nil && lab.Perm {
		return
	}
	own := s.resolveOwner(toIdx)
	lay := &s.g.Layers[l]
	mult := float64(s.costs.Mult[seg])
	if s.opt.Discount && own == c.id {
		if !fromOwn {
			return // as in relaxWire
		}
		mult = 0
	}
	tgt := s.target(c, own, to)
	ng := e.g + mult*lay.ViaCost + c.weight*lay.ViaDelay
	if lab == nil {
		lab, _ = c.labels.Put(toIdx)
	} else if ng >= lab.Dist-1e-15 {
		return
	}
	lab.Dist = ng
	lab.Perm = false
	lab.Code = code
	if tgt >= 0 {
		s.pushConnect(c, ng, toIdx, tgt)
		return
	}
	if *hv == unset {
		*hv = s.h(c, x, y)
	}
	s.push(c, ng+*hv, entry{g: ng, idx: toIdx, target: -1})
}

// target returns the component that c's move onto the vertex `to`
// connects to, or -1 for an ordinary expansion; own is the vertex's
// resolved owner (-1 when unclaimed). With §III-A discounting any vertex
// of another component completes a connection; the plain §II algorithm
// connects only at that component's representative terminal.
func (s *solver) target(c *comp, own int32, to grid.V) int32 {
	if own >= 0 && own != c.id && (s.opt.Discount || to == s.comps[own].rep) {
		return own
	}
	return -1
}

// pushConnect records that c reaches component tgt at window index toIdx
// with label g: a root connection becomes c's root candidate (kept out of
// the heap), any other a connection entry keyed by g plus the bifurcation
// penalty.
func (s *solver) pushConnect(c *comp, g float64, toIdx, tgt int32) {
	j := s.comps[tgt]
	if j.isRoot {
		c.offerRoot(g, toIdx)
		return
	}
	s.push(c, g+s.bConnect(c, j), entry{g: g, idx: toIdx, target: tgt})
}

// merge commits the connection of c to component jid at the vertex with
// window index pIdx, reconstructs the connection path by decoding the
// labels' predecessor codes, and starts the merged search.
func (s *solver) merge(c *comp, jid int32, pIdx int32, toRoot bool) error {
	j := s.comps[jid]

	// Reconstruct path from the connection vertex back to c's seed. When
	// nobody traces, the path lives in a recycled buffer; a trace callback
	// may retain its event, so it gets a fresh slice.
	path := s.pathBuf[:0]
	if s.trace != nil {
		path = nil
	}
	pathIdx := s.pathIdxBuf[:0]
	cur, curIdx := s.win.Vertex(pIdx), pIdx
	for {
		path = append(path, cur)
		pathIdx = append(pathIdx, curIdx)
		lab := c.labels.Get(curIdx)
		if lab == nil {
			break
		}
		prevIdx, arc, ok := s.g.Pred(s.win, lab.Code, curIdx)
		if !ok {
			return fmt.Errorf("core: window index %d carries predecessor code %d, which no move into it writes", curIdx, lab.Code)
		}
		if prevIdx < 0 {
			break
		}
		prev := s.win.Vertex(prevIdx)
		// Own-component hops are existing tree edges; skip re-emitting.
		if !(s.resolveOwner(prevIdx) == c.id && s.resolveOwner(curIdx) == c.id) {
			s.steps = append(s.steps, nets.Step{From: prev, Arc: arc})
		}
		cur, curIdx = prev, prevIdx
	}
	if s.trace == nil {
		s.pathBuf = path
	}
	s.pathIdxBuf = pathIdx

	ev := TraceEvent{
		Iter: s.iter, ToRoot: toRoot,
		PosU: s.g.Pt(c.rep), PosV: s.g.Pt(j.rep),
		WU: c.weight, WV: j.weight,
		Path:    path,
		Labeled: c.labels.Len(),
	}
	s.iter++

	nid := int32(len(s.comps))
	s.sets.Grow(1)
	s.top.Grow(1)
	s.rootTop.Grow(1)
	k := s.scr.newComp()
	k.id, k.alive = nid, true
	// The merged pair leaves the live-target table and its union, grown
	// by the connection path, enters it: labels pushed from here on are
	// bounded against the new box. The root component is the exception —
	// it stays in the table as the root point plus one box per subtree
	// joined to it, which together cover its vertices and bound tighter
	// than one box around all of them would.
	var box geom.Rect
	if toRoot {
		box = s.targets.Remove(c.id).Add(s.g.Pt(j.rep))
	} else {
		box = s.targets.Remove(c.id).Union(s.targets.Remove(j.id))
	}
	for i, v := range path {
		box = box.Add(s.g.Pt(v))
		s.owner.PutIfAbsent(pathIdx[i], nid)
	}
	s.targets.Add(nid, box)
	s.nextTargets()
	if toRoot {
		k.isRoot = true
		k.rep = j.rep
		s.activeW -= c.weight
		s.alive--
	} else {
		k.weight = c.weight + j.weight
		k.rep = s.chooseRep(c, j)
		s.alive--
	}
	ev.NewRep = s.g.Pt(k.rep)

	// Deactivate the merged pair, returning their label pages and queue
	// storage to the arena.
	for _, old := range [2]*comp{c, j} {
		old.alive = false
		old.labels.Release()
		s.scr.takeQueue(old)
		s.refreshTop(old)
	}
	s.comps = append(s.comps, k)
	s.sets.UnionInto(nid, c.id)
	s.sets.UnionInto(nid, j.id)

	if k.isRoot {
		// Active weight changed: every root-candidate key must be
		// refreshed (they only shrink here, which lazy heaps cannot
		// absorb — the root top-level heap is exact).
		for _, cc := range s.comps {
			if cc.alive && !cc.isRoot {
				s.publishRoot(cc)
			}
		}
	} else {
		s.startSearch(k)
	}
	if s.trace != nil {
		s.trace(ev)
	}
	return nil
}

// chooseRep picks the merged component's representative. Algorithm 1
// line 7 selects randomly, proportional to the delay weights, which the
// approximation proof (Lemma 2) needs. With §III-A discounting, the
// Steiner vertex is implicitly placed where future paths leave the
// component, so what remains of §III-D here is the choice of the delay
// anchor: deterministically taking the heavier terminal charges the
// pair's connection delay to the lighter side, i.e. min(w_u,w_v)·d(P),
// which is at most the randomized choice's expected 2·w_u·w_v/(w_u+w_v)
// — a strict improvement in practice that, like the paper's §III-D,
// gives up the theoretical guarantee.
func (s *solver) chooseRep(c, j *comp) grid.V {
	if s.opt.ImproveSteiner {
		if c.weight >= j.weight {
			return c.rep
		}
		return j.rep
	}
	if s.rng.Float64()*(c.weight+j.weight) < c.weight {
		return c.rep
	}
	return j.rep
}

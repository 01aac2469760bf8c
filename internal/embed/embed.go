// Package embed maps a Steiner topology into the 3D global routing
// graph, minimizing the cost-distance objective (1). This is the
// "Dijkstra-style embedding" of ref [13] that the paper's three baseline
// algorithms (L1, SL, PD) use after constructing their topology in the
// plane (§IV-A): terminals are pinned to their graph vertices, Steiner
// vertices float freely, and every topology edge above a subtree with
// total sink weight W is routed under the metric c(e) + W·d(e), which is
// exactly that edge's contribution to (1). Bifurcation penalties are
// constants per branching (λ per eq. (2)) and are added to the objective
// estimate.
//
// The embedding is a two-pass dynamic program over a dense window:
// bottom-up, each topology node v gets a table D_v(x) = cost of
// embedding v's subtree with v at graph vertex x (children tables are
// spread toward the parent by a multi-source Dijkstra); top-down, the
// optimal vertex choices and paths are read back off the predecessors
// those spreads recorded. Every topology edge is spread exactly once:
// cost tables are float32 to halve memory, and the predecessors kept
// per edge are one byte a cell (grid's predecessor codes).
//
// The program is written once: DP is the driver, Workspace.Spread
// (spread.go) its one spread kernel. Embed runs it unlimited over the
// instance's routing window; the repair rung (package reembed) runs it
// on a per-worker DP over a small window, with corridors, a cost bound
// and a settle budget (Limits).
package embed

import (
	"errors"
	"fmt"
	"math"

	"costdist/internal/geom"
	"costdist/internal/nets"
)

var inf32 = float32(math.Inf(1))

// Result carries the embedded tree and the DP's objective estimate
// (congestion cost + weighted delays + bifurcation penalty constants).
// The estimate can differ from nets.Evaluate when reconstructed paths
// overlap and the union is pruned back to a tree (pruning only removes
// cost), or when the embedded tree's incidental branch structure shifts
// λ assignments.
type Result struct {
	Tree     *nets.RTree
	Estimate float64
	// Settles is the number of labels the DP's spreads settled: its
	// deterministic work count.
	Settles int
}

// Embed embeds the topology into in.G within in.Win. The topology is
// canonicalized first, so any valid PlaneTree is accepted.
func Embed(in *nets.Instance, tree *nets.PlaneTree) (*Result, error) {
	var d DP
	unlimited := Limits{Halo: -1, Bound: math.Inf(1), Settles: math.MaxInt, Cells: math.MaxInt64}
	rt, est, err := d.Run(in, tree, in.Win, unlimited)
	if err != nil {
		return nil, err
	}
	return &Result{Tree: rt, Estimate: est, Settles: d.Settles}, nil
}

// Limits confine one run of the DP. Narrowing them never yields an
// invalid tree, only a costlier one or an error.
type Limits struct {
	// Halo ≥ 0 confines the spread of each topology edge to a corridor:
	// the bounding box of its two nodes' positions in the given
	// topology (the root vertex for node 0), expanded by Halo gcells and
	// clamped to the window. A re-embedding is a local perturbation of
	// the tree the topology came from, so every node re-places near
	// where it was. Negative: whole window.
	Halo int32
	// Bound is a hard total-cost cutoff: partial embeddings pricing at
	// or above it are pruned, and ErrBound reports that no embedding
	// beats it. +Inf for none.
	Bound float64
	// Settles is the settle budget of the run, all spreads together;
	// ErrTooLarge reports a run that exhausted it. Settle order is
	// deterministic, so the cutoff is too.
	Settles int
	// Cells bounds window size × node count, the table footprint (a
	// float32 cost and a predecessor code per cell, 5 B); beyond it Run
	// reports ErrTooLarge without allocating.
	Cells int64
}

// ErrTooLarge reports a run beyond its Limits.Cells or Limits.Settles.
var ErrTooLarge = errors.New("embed: tables or search too large")

// ErrBound reports that every embedding of the topology prices at or
// above Limits.Bound.
var ErrBound = errors.New("embed: no embedding under cost bound")

// DP is the reusable state of the embedding program: the spread
// workspace, a pool of per-node cost and code tables and the driver's
// per-run slices, so a run on a warmed DP allocates nothing beyond
// canonicalizing the topology and pruning the result. The zero value is
// ready; not safe for concurrent use.
type DP struct {
	Workspace

	ct   *nets.PlaneTree
	kids [][]int32
	lim  Limits
	// bound is the spread-level cutoff (Limits.Bound minus the constant
	// bifurcation penalties), left what remains of the settle budget.
	bound float64
	left  int

	sinkW, subW []float64
	// acc[v] is D_v: min subtree cost with node v embedded at each
	// window vertex, on tables from the pool (ntab handed out this run).
	// Only the cells inside def[v], on every layer, are written — a
	// sink's own gcell, else the overlap of the corridors v's children
	// were spread in; outside it D_v is +Inf by definition and no cell
	// is ever read. codes[v] holds the predecessor codes of the spread of
	// v's edge to its parent, written wherever that spread put a label.
	acc    [][]float32
	codes  [][]uint8
	def    []geom.Rect
	tables []table
	ntab   int
	// steps collects the reconstructed paths, root edge first.
	steps []nets.Step
}

// table is one pooled pair of per-node tables over the window.
type table struct {
	cost []float32
	code []uint8
}

// resized returns s with length n, reallocating only when it is too
// small; the contents are undefined.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Run embeds the topology cost-minimally into in.G restricted to the
// window winRect and within lim. It returns the embedded tree and the
// DP's objective estimate.
func (d *DP) Run(in *nets.Instance, tree *nets.PlaneTree, winRect geom.Rect, lim Limits) (*nets.RTree, float64, error) {
	d.sinkW = resized(d.sinkW, len(in.Sinks))
	for i, s := range in.Sinks {
		d.sinkW[i] = s.W
	}
	ct := tree.Canonicalize(d.sinkW, in.DBif, in.Eta)
	if err := ct.Validate(len(in.Sinks)); err != nil {
		return nil, 0, fmt.Errorf("embed: %w", err)
	}
	kids := ct.Children()
	if len(kids[0]) == 0 {
		return &nets.RTree{}, 0, nil
	}
	if err := in.G.CheckCodeWidth(); err != nil {
		return nil, 0, err
	}
	win := in.G.NewWindow(winRect)
	n := len(ct.Nodes)
	if int64(win.Size())*int64(n) > lim.Cells {
		return nil, 0, ErrTooLarge
	}
	rootIdx := win.Index(in.Root)
	if rootIdx < 0 {
		return nil, 0, fmt.Errorf("embed: root outside window")
	}
	d.ct, d.kids, d.lim = ct, kids, lim
	d.subW, d.acc, d.codes, d.def = resized(d.subW, n), resized(d.acc, n), resized(d.codes, n), resized(d.def, n)
	d.steps, d.ntab = d.steps[:0], 0
	d.Reset(in, win)
	d.weigh(0)

	// The bifurcation penalties are constants of the topology (they
	// depend only on the subtree weight split, never on positions), so
	// they come off the bound before the spreads see it.
	penalty := 0.0
	for _, ch := range kids {
		if len(ch) == 2 {
			penalty += nets.Beta(in.DBif, in.Eta, d.subW[ch[0]], d.subW[ch[1]])
		}
	}
	d.bound, d.left = lim.Bound-penalty, lim.Settles

	// Bottom-up tables, then the top edge: spread the root's single
	// child toward the root vertex (its corridor spans the child's
	// position and that vertex, whatever position node 0 carries) and
	// stop there. The codes then lead from the root vertex down the
	// tree the estimate priced.
	top := kids[0][0]
	if err := d.up(top); err != nil {
		return nil, 0, err
	}
	if !d.spread(top, rootIdx, d.corridor(top, in.G.Pt(in.Root))) {
		return nil, 0, ErrTooLarge
	}
	estimate, ok := d.Settled(rootIdx)
	if !ok {
		return nil, 0, d.unreachable("root")
	}
	estimate += penalty
	if err := d.down(top, rootIdx); err != nil {
		return nil, 0, err
	}
	rt, err := nets.PruneToTree(in, d.steps)
	if err != nil {
		return nil, 0, err
	}
	return rt, estimate, nil
}

// unreachable is the error for a DP table with no finite cell: under a
// finite bound nothing beats the bound, otherwise the window (or the
// corridors) disconnect the topology.
func (d *DP) unreachable(what string) error {
	if !math.IsInf(d.lim.Bound, 1) {
		return ErrBound
	}
	return fmt.Errorf("embed: %s unreachable in window", what)
}

// weigh fills subW[v], the total sink weight below topology node v.
func (d *DP) weigh(v int32) float64 {
	w := 0.0
	if s := d.ct.Nodes[v].SinkIdx; s >= 0 {
		w = d.in.Sinks[s].W
	}
	for _, c := range d.kids[v] {
		w += d.weigh(c)
	}
	d.subW[v] = w
	return w
}

// corridor is the rectangle the spread of the topology edge from node c
// to its parent, positioned at to, may explore (see Limits.Halo).
func (d *DP) corridor(c int32, to geom.Pt) geom.Rect {
	if d.lim.Halo < 0 {
		return d.win.R
	}
	p, g := d.ct.Nodes[c].Pos, d.in.G
	r := geom.Rect{X0: p.X, Y0: p.Y, X1: p.X, Y1: p.Y}.Add(to)
	return r.Expand(d.lim.Halo, g.NX, g.NY).Intersect(d.win.R)
}

// spread runs the kernel seeded with acc[c] under the metric
// cost + subW[c]·delay inside corr, recording predecessors in codes[c];
// seeds outside corr are dropped. With target ≥ 0 the search stops once
// that window index settles, with -1 it exhausts the corridor. It
// reports false when the run's settle budget ran out.
func (d *DP) spread(c, target int32, corr geom.Rect) bool {
	before := d.Settles
	ok := d.Spread(d.acc[c], corr.Intersect(d.def[c]), d.subW[c], corr, d.bound, d.left, target, d.codes[c])
	d.left -= d.Settles - before
	return ok
}

// up builds the tables of v's subtree bottom-up.
func (d *DP) up(v int32) error {
	for _, c := range d.kids[v] {
		if err := d.up(c); err != nil {
			return err
		}
	}
	return d.accumulate(v)
}

// accumulate builds acc[v]: a sink's table is 0 at its vertex; an inner
// node's is the sum of its children's spreads, with cells whose partial
// cost already reaches the bound pruned to inf (every term is
// nonnegative, so a partial sum at the bound can never be part of an
// embedding below it). Each child's sweep walks only the rows of
// def[v], which shrinks to the overlap of the children's corridors.
func (d *DP) accumulate(v int32) error {
	if d.ntab == len(d.tables) {
		d.tables = append(d.tables, table{})
	}
	pooled := &d.tables[d.ntab]
	pooled.cost, pooled.code = resized(pooled.cost, int(d.win.Size())), resized(pooled.code, int(d.win.Size()))
	tbl := pooled.cost
	d.acc[v], d.codes[v] = tbl, pooled.code
	d.ntab++
	if si := d.ct.Nodes[v].SinkIdx; si >= 0 {
		sink := d.in.Sinks[si].V
		idx := d.win.Index(sink)
		if idx < 0 {
			return fmt.Errorf("embed: sink %d outside window", si)
		}
		p := d.in.G.Pt(sink)
		d.def[v] = geom.Rect{X0: p.X, Y0: p.Y, X1: p.X, Y1: p.Y}
		for l := int32(0); l < d.win.Layers(); l++ {
			tbl[d.win.RectIndex(p.X, p.Y, l)] = inf32
		}
		tbl[idx] = 0
		return nil
	}
	any := false
	for i, c := range d.kids[v] {
		corr := d.corridor(c, d.ct.Nodes[v].Pos)
		if !d.spread(c, -1, corr) {
			return ErrTooLarge
		}
		r := corr
		if i > 0 {
			r = d.def[v].Intersect(corr)
		}
		d.def[v], any = r, false
		rowW, settled, ep := r.W(), d.settled, d.Epoch.Cur()
		for l := int32(0); l < d.win.Layers(); l++ {
			for y := r.Y0; y <= r.Y1; y++ {
				x0 := d.win.RectIndex(r.X0, y, l)
				for x := x0; x < x0+rowW; x++ {
					reached := settled[x] == ep
					if i == 0 {
						tbl[x] = inf32
						if reached {
							tbl[x], any = float32(d.dist[x]), true
						}
					} else if tbl[x] != inf32 {
						if reached && float64(tbl[x])+d.dist[x] < d.bound {
							tbl[x] += float32(d.dist[x])
							any = true
						} else {
							tbl[x] = inf32
						}
					}
				}
			}
		}
	}
	if !any {
		return d.unreachable("subtree")
	}
	return nil
}

// errCodes reports a predecessor walk that left the cells its spread
// labelled: a bug in the kernel or the driver, never a property of the
// input.
var errCodes = errors.New("embed: predecessor codes cycle")

// down reconstructs top-down: from window index at, where v's parent
// was placed, it walks the predecessor codes of v's edge back to the
// seed that spread grew the label from — v's position — emitting one
// step per code, and continues from there into each child's codes.
func (d *DP) down(v, at int32) error {
	codes := d.codes[v]
	for n := 0; ; n++ {
		p, arc, ok := d.in.G.Pred(d.win, codes[at], at)
		if !ok || n == len(codes) {
			return errCodes
		}
		if p < 0 {
			break
		}
		d.steps = append(d.steps, nets.Step{From: d.win.Vertex(p), Arc: arc})
		at = p
	}
	for _, c := range d.kids[v] {
		if err := d.down(c, at); err != nil {
			return err
		}
	}
	return nil
}

// Package core implements the paper's primary contribution: the fast
// randomized O(log t)-approximation algorithm for cost-distance Steiner
// trees with bifurcation penalties (Algorithm 1), together with the
// practical enhancements of §III:
//
//   - §III-A discounting of existing tree components: searches traverse
//     their own component's edges at zero congestion cost and may finish
//     at any vertex of a target component;
//   - §III-B two-level heaps: one binary heap per active component plus
//     an indexed top-level heap over per-component minima, so the
//     globally minimal tentative label pops in O(log t + log n);
//   - §III-C goal-oriented (A*) searches: every label is keyed by its
//     distance plus an admissible future cost, the bound of
//     internal/future's live-target table to the nearest other alive
//     component's bounding box, priced per direction by the layer
//     stack's cost–delay envelope at the component's weight (on by
//     default);
//   - §III-D improved placement of new Steiner vertices: §III-A already
//     lets later paths leave a component anywhere, and the merged
//     component keeps the heavier endpoint as its delay anchor;
//   - §III-E encouraging early root connections by discounting the
//     expected future penalty savings.
//
// The algorithm runs one Dijkstra per active component u under the
// sink-individual metric l_u(e) = c(e) + w(u)·d(e) (eq. 4), merges the
// first pair whose connection label (including the balanced bifurcation
// penalty b(u,v)) becomes globally minimal (eq. 5), and repeats with the
// merged component until every sink is connected to the root.
package core

import (
	"costdist/internal/geom"
	"costdist/internal/grid"
	"costdist/internal/heaps"
	"costdist/internal/sparse"
)

// Options selects the practical enhancements. The zero value is the
// plain §II algorithm; DefaultOptions enables what the paper's CD runs
// use.
type Options struct {
	// Discount enables §III-A: zero connection cost on own-component
	// edges and connections completing at any target-component vertex.
	Discount bool
	// AStar enables §III-C goal-oriented searches; switching it off is
	// the §III-C ablation (plain Dijkstra, about three times the settled
	// labels). A label's future cost is the cheapest x- and y-step of the
	// layer stack under its component's weight (future.Targets.Units)
	// times the offsets to the nearest other component's box, taken
	// against the components alive when it is pushed; after a merge grows
	// a target, older labels may carry slightly inflated keys (the
	// stale-key trade, see ARCHITECTURE.md "Goal-oriented search").
	AStar bool
	// ImproveSteiner enables §III-D: the new component's representative
	// is the heavier of the two merged representatives instead of a
	// weight-proportional random pick (see chooseRep).
	ImproveSteiner bool
	// RootBonus enables §III-E: root connection labels are discounted by
	// the guaranteed future penalty saving η·dbif·w(u).
	RootBonus bool
	// FlatHeap replaces the two-level heap with a single global heap
	// (ablation of §III-B). Results are identical only with AStar off.
	// With AStar on, the two arrangements re-key stale future costs at
	// different moments and can return different trees (2 of 400 seeded
	// random 20×20×4 instances), so the ablation row is not speed alone.
	FlatHeap bool
	// Scratch, when non-nil, supplies a reusable arena for the solver's
	// per-call state (components, heaps, label pages, ownership stamps).
	// Results are bit-identical with or without it. A Scratch must not
	// be shared between concurrent solves; the router and SolveBatch
	// give each worker its own.
	Scratch *Scratch
}

// DefaultOptions returns the configuration used for the paper's "CD"
// experiments: every §III enhancement on, with the two-level heap.
func DefaultOptions() Options {
	return Options{
		Discount:       true,
		AStar:          true,
		ImproveSteiner: true,
		RootBonus:      true,
	}
}

// TraceEvent describes one merge, for visualization (Figure 3) and
// debugging.
type TraceEvent struct {
	Iter   int
	ToRoot bool
	// PosU and PosV are the representative positions of the two merged
	// components; WU, WV their delay weights.
	PosU, PosV geom.Pt
	WU, WV     float64
	// Path is the vertex sequence of the new connection (may be empty
	// for coincident components).
	Path []grid.V
	// NewRep is the representative chosen for the merged component.
	NewRep geom.Pt
	// Labeled is the number of labeled vertices of the initiating search
	// at merge time (the "disk size" in Figure 3).
	Labeled int
}

// comp is an active component: a subtree already built, its Dijkstra
// search state, and bookkeeping for connection candidates.
type comp struct {
	id     int32
	weight float64
	alive  bool
	isRoot bool

	rep grid.V // representative terminal position

	// ux, uy are the cheapest l_c-lengths of one gcell step in x and in y
	// under this component's weight (future.Targets.Units), taken once per
	// search: the per-direction prices of its §III-C future cost.
	ux, uy float64

	// labels holds the search's Dijkstra labels by window index; it has
	// pages only between startSearch and the component's merge. queue
	// likewise holds storage lent by the arena (Scratch.queues) only
	// while the component searches.
	labels sparse.LabelSlab
	queue  heaps.Lazy[entry]

	// Best root-connection candidate found so far (kept out of the heap
	// because its penalty term changes when the active weight shrinks).
	rootG   float64
	rootIdx int32 // window index of the vertex where it meets the root
	hasRoot bool
	// rootMoved is set when offerRoot takes a candidate the root top heap
	// has not seen yet (see refreshTop).
	rootMoved bool
}

// offerRoot offers a root connection of c at window index idx with label
// g: it becomes c's root candidate when it is c's first or beats the
// current one. Every root connection a search finds — relaxed onto a root
// vertex or resolved from a stale queue entry — goes through here.
func (c *comp) offerRoot(g float64, idx int32) {
	if !c.hasRoot || g < c.rootG {
		c.rootG, c.rootIdx, c.hasRoot, c.rootMoved = g, idx, true, true
	}
}

// entry is a queue element of one component's search: 16 bytes, because
// every sift level of the component's heap moves one (the graph vertex and
// its coordinates are decoded from idx when the entry is acted on, the
// penalty of a connection entry is recomputed when it is validated).
type entry struct {
	g float64 // true distance label (without heuristic or penalty)
	// idx is the labelled vertex's dense index in the solve's routing
	// window — the label key and, via grid.Window.XYL, its position.
	idx int32
	// target is the component id this entry would connect to, or -1 for
	// an ordinary expansion entry.
	target int32
}

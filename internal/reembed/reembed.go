// Package reembed is the topology-repair rung of the incremental
// routing engine: a fixed-topology optimal re-embedding of a cached net
// tree under the current congestion and timing prices. Between the two
// existing rungs — replay a cached tree verbatim, or pay a full oracle
// solve — it implements the middle tier of Maßberg's fixed-topology
// rectilinear Steiner DP (arXiv 1412.5010): keep the cached tree's
// topology (the parent/child structure over root, sinks and Steiner
// points), let every Steiner point float, and re-embed the topology
// cost-minimally in time polynomial in the tree size.
//
// The pipeline per net is extraction → re-embedding → adoption:
//
//   - ExtractTopology contracts the cached embedded tree (nets.RTree)
//     back to its plane topology: tree vertices hosting sinks or three
//     or more tree branches become topology nodes, degree-2
//     pass-through chains are spliced out. Bend positions carry no
//     information — the re-embedding re-routes every topology edge
//     anyway.
//   - Reembed runs package embed's two-pass dynamic program (embed.DP:
//     spread child tables toward the parent by multi-source Dijkstra
//     under the metric c(e) + W·d(e) — the shared kernel
//     embed.Workspace.Spread, once per topology edge — then read the
//     tree back top-down off the predecessors those spreads recorded),
//     the same code the baselines' embedding runs, but over the small
//     repair window around the cached tree instead of the oracle's
//     full routing window, confined per topology edge to a corridor, cut
//     off at the cached tree's cost and at a settle budget, and on a
//     reusable Scratch stamped by a sparse.Gen, like the solver arenas'
//     stores, instead of per-call allocations.
//     Restricted to the window grid of the subtree's terminals, the DP
//     returns the cost-minimal embedding of the topology.
//   - Repair evaluates both the repaired and the cached tree under the
//     current prices through nets.Evaluate and adopts the cheaper one,
//     so a repair outcome never prices above the replayed cached tree.
//
// Everything is a pure function of (instance, cached tree): results are
// independent of worker count and scheduling, which is what lets the
// router keep its bit-identical determinism guarantees with the repair
// rung enabled.
package reembed

import (
	"errors"
	"fmt"

	"costdist/internal/embed"
	"costdist/internal/geom"
	"costdist/internal/grid"
	"costdist/internal/nets"
	"costdist/internal/obs"
)

// Halo is the window margin, in gcells, added around the cached tree's
// bounding box (plus the terminals) to form the repair window. The DP
// embeds optimally within the window; a small halo lets a repaired
// Steiner point sidestep a freshly priced hot spot next to the tree
// without paying for the oracle's full routing window.
const Halo = 2

// maxTableCells bounds window-size × topology-node-count, the DP's
// table footprint in cells of 5 B (a float32 cost and a predecessor
// code). Nets beyond it (huge windows, very high fanout) report
// ErrTooLarge and escalate to a full solve instead of allocating
// hundreds of MB per worker.
const maxTableCells = 16 << 20

// maxSettles bounds the total Dijkstra settle count of one repair
// attempt across all spreads. The bound-pruned corridor keeps typical
// repairs far below it; a net that blows the budget (big window and a
// loose cost bound — heavy drift on a high-fanout net) is exactly a
// net where the oracle's own goal-directed search is the cheaper tool,
// so the attempt aborts with ErrTooLarge and escalates. Settle order
// is deterministic, so the cutoff is too.
const maxSettles = 48 << 10

// ErrTooLarge reports a net whose repair tables would exceed
// maxTableCells or whose spreads outrun maxSettles; the caller
// escalates it to a full oracle solve.
var ErrTooLarge = embed.ErrTooLarge

// Outcome is the result of one repair attempt.
type Outcome struct {
	// Tree is the adopted tree: the re-embedding when it prices below
	// the cached tree, the cached tree otherwise.
	Tree *nets.RTree
	// Eval is Tree's evaluation under the current prices; CachedEval
	// the cached tree's. Eval.Total ≤ CachedEval.Total always holds.
	Eval       *nets.Eval
	CachedEval *nets.Eval
	// Improved reports whether the re-embedding beat the cached tree.
	Improved bool
}

// Scratch is the reusable per-worker workspace of a repair: the
// embedding DP's state (epoch-stamped spread workspace over the repair
// window, pooled per-node cost and code tables, per-attempt slices) and
// topology extraction's, so neither allocates per attempt beyond the
// PlaneTree handed on. Not safe for concurrent use; give each worker its
// own.
type Scratch struct {
	// rooted is the cached tree's rooting during topology extraction.
	rooted nets.Rooted
	dp     embed.DP

	// Obs is the owning router worker's telemetry sink; Repair records
	// the re-embedding DP on it as a detail span nested inside the
	// router's repair span. The router re-points it every wave (nil on
	// unrecorded runs, which records nothing); it never influences the
	// repair.
	Obs *obs.Worker
}

// NewScratch returns an empty workspace; it grows to the largest
// repair window it ever serves and is reused across nets and waves.
func NewScratch() *Scratch { return &Scratch{} }

// TakeSettles returns the labels the spreads of this workspace's repairs
// settled since the last call, and starts the count again from zero: the
// repair rung's deterministic work count.
func (s *Scratch) TakeSettles() int {
	n := s.dp.Settles
	s.dp.Settles = 0
	return n
}

// Window returns the repair window of a cached tree: the bounding box
// of the tree and the instance terminals, expanded by Halo and clamped
// to the grid.
func Window(in *nets.Instance, cached *nets.RTree) geom.Rect {
	r := cached.BBox(in.G)
	r = r.Add(in.G.Pt(in.Root))
	for _, s := range in.Sinks {
		r = r.Add(in.G.Pt(s.V))
	}
	return r.Expand(Halo, in.G.NX, in.G.NY)
}

// Repair attempts the fixed-topology re-embedding of a cached tree
// under the instance's current prices and returns the adopted tree —
// the re-embedding when it is strictly cheaper, the cached tree
// otherwise — together with both evaluations. Errors (malformed cached
// tree, repair tables too large) mean the net cannot be repaired and
// must escalate to a full solve.
func Repair(in *nets.Instance, cached *nets.RTree, scr *Scratch) (*Outcome, error) {
	if scr == nil {
		scr = NewScratch()
	}
	cachedEval, err := nets.Evaluate(in, cached)
	if err != nil {
		return nil, fmt.Errorf("reembed: cached tree: %w", err)
	}
	if len(cached.Steps) == 0 {
		// Every terminal sits on the root vertex; there is nothing to
		// re-embed.
		return &Outcome{Tree: cached, Eval: cachedEval, CachedEval: cachedEval}, nil
	}
	win := Window(in, cached)
	topo, err := ExtractTopology(in, cached, win, scr)
	if err != nil {
		return nil, err
	}
	// The cached tree's priced total is a hard cost bound for the DP:
	// adoption is strict-<, so embeddings at or above it are worthless
	// and the spreads prune to the corridor that can still beat it.
	bound := cachedEval.Total * (1 + 1e-9)
	dpT0 := scr.Obs.Now()
	tr, _, err := Reembed(in, topo, win, bound, scr)
	scr.Obs.DetailSpan(obs.StageRepair, -1, "reembed-dp", dpT0)
	if errors.Is(err, embed.ErrBound) {
		// The cached tree is already optimal-or-tied within the window.
		return &Outcome{Tree: cached, Eval: cachedEval, CachedEval: cachedEval}, nil
	}
	if err != nil {
		return nil, err
	}
	ev, err := nets.Evaluate(in, tr)
	if err != nil {
		return nil, fmt.Errorf("reembed: repaired tree: %w", err)
	}
	// Adoption rule: strict < keeps the cached tree on ties, so a
	// repair can only ever lower the priced objective.
	if ev.Total < cachedEval.Total {
		return &Outcome{Tree: tr, Eval: ev, CachedEval: cachedEval, Improved: true}, nil
	}
	return &Outcome{Tree: cached, Eval: cachedEval, CachedEval: cachedEval}, nil
}

// ExtractTopology contracts a cached embedded tree to its plane
// topology. Topology nodes are the root, every vertex hosting a sink,
// and every vertex where the rooted tree branches; pass-through chains
// between them are spliced out, dangling stubs dropped. The result is
// a valid PlaneTree over the instance's sinks (Canonicalize-ready; the
// caller binarizes it). Steps that do not form a tree containing the
// root are an error.
func ExtractTopology(in *nets.Instance, cached *nets.RTree, winRect geom.Rect, scr *Scratch) (*nets.PlaneTree, error) {
	g, r := in.G, &scr.rooted
	r.Build(in.Root, cached.Steps, in.Sinks)
	// Anything but a tree would repeat subtrees below.
	if !r.IsTree() {
		return nil, fmt.Errorf("reembed: cached tree has a cycle or is disconnected from the root")
	}
	for i := int32(0); i < int32(r.N()); i++ {
		if v := r.Vertex(i); !winRect.Contains(g.Pt(v)) {
			return nil, fmt.Errorf("reembed: tree vertex %d outside repair window", v)
		}
	}
	for si, h := range r.Host {
		if h < 0 {
			return nil, fmt.Errorf("reembed: sink %d not on cached tree", si)
		}
	}

	out := &nets.PlaneTree{}
	out.Nodes = append(out.Nodes, nets.PlaneNode{Pos: g.Pt(in.Root), Parent: -1, SinkIdx: -1})
	// Sinks hosted on the root vertex hang as leaves under node 0 (the
	// root node itself must stay a plain terminal).
	for _, si := range r.SinksAt(0) {
		out.Nodes = append(out.Nodes, nets.PlaneNode{Pos: g.Pt(in.Root), Parent: 0, SinkIdx: si})
	}
	attachKids(g, r, out, 0, 0)
	return out, nil
}

// attachKids attaches the subtrees under node v of the rooting to
// PlaneTree node parentNode, the last child first.
func attachKids(g *grid.Graph, r *nets.Rooted, out *nets.PlaneTree, v, parentNode int32) {
	for c := r.KidOff[v+1] - 1; c >= r.KidOff[v]; c-- {
		attach(g, r, out, c, parentNode)
	}
}

// attach materializes the topology node for the subtree entered at
// node v of the rooting under PlaneTree node parentNode, splicing
// pass-through chains on the way down.
func attach(g *grid.Graph, r *nets.Rooted, out *nets.PlaneTree, v, parentNode int32) {
	for len(r.SinksAt(v)) == 0 && r.KidOff[v+1]-r.KidOff[v] == 1 {
		v = r.KidOff[v]
	}
	hosted := r.SinksAt(v)
	if len(hosted) == 0 && r.KidOff[v+1] == r.KidOff[v] {
		return // dangling stub: carries nothing
	}
	n := nets.PlaneNode{Pos: g.Pt(r.Vertex(v)), Parent: parentNode, SinkIdx: -1}
	if len(hosted) > 0 {
		n.SinkIdx = hosted[0]
		hosted = hosted[1:]
	}
	out.Nodes = append(out.Nodes, n)
	me := int32(len(out.Nodes) - 1)
	// Co-located extra sinks become leaf children at the same spot.
	for _, si := range hosted {
		out.Nodes = append(out.Nodes, nets.PlaneNode{Pos: n.Pos, Parent: me, SinkIdx: si})
	}
	attachKids(g, r, out, v, me)
}

// Reembed embeds the topology cost-minimally into in.G restricted to
// the window win: the two-pass DP of package embed (bottom-up tables
// spread by multi-source Dijkstra, top-down walk of the predecessors
// those spreads recorded) on the reusable scratch, each topology edge
// confined to the Halo corridor around its cached endpoints and the
// whole attempt to maxTableCells and maxSettles. It returns the
// embedded tree and the DP's objective estimate (congestion + weighted
// delay + bifurcation penalty constants). bound is a hard total-cost
// cutoff: the spreads prune every partial embedding that already
// prices at or above it (pass +Inf for the unbounded DP) and
// embed.ErrBound reports that no embedding beats it.
//
// Narrowing the search to corridors is sound because adoption
// re-evaluates the reconstructed tree: it can only trade repair power
// for speed, never produce a tree worse than replay; nets whose better
// embedding lies outside every corridor come back unimproved and
// escalate through the cost check.
func Reembed(in *nets.Instance, tree *nets.PlaneTree, winRect geom.Rect, bound float64, scr *Scratch) (*nets.RTree, float64, error) {
	if scr == nil {
		scr = NewScratch()
	}
	return scr.dp.Run(in, tree, winRect, embed.Limits{Halo: Halo, Bound: bound, Settles: maxSettles, Cells: maxTableCells})
}

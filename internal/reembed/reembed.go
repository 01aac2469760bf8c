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
//     reusable generation-stamped Scratch (the sparse.FlatI32 idiom
//     from the solver arenas) instead of per-call allocations.
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
	"costdist/internal/sparse"
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
// window, pooled per-node cost and code tables, per-attempt slices —
// the sparse.FlatI32 idiom) and topology extraction's, so neither
// allocates per attempt beyond the PlaneTree handed on. Not safe for
// concurrent use; give each worker its own.
type Scratch struct {
	// vid maps window indices to dense tree-vertex ids during topology
	// extraction.
	vid sparse.FlatI32
	dp  embed.DP
	// ExtractTopology's per-attempt slices over the cached tree's dense
	// vertex ids: the vertices; the half-edge adjacency (head per vertex,
	// next and to per half-edge); the BFS rooting; and each vertex's
	// children and hosted sinks as offset arrays (kidsOf, sinksOf), host
	// being the vertex of each sink.
	verts                              []grid.V
	head, next, to, parent, order      []int32
	kidOff, kids, sinkOff, sinks, host []int32

	// Obs, when non-nil, is the owning router worker's telemetry sink;
	// Repair records the re-embedding DP on it as a detail span nested
	// inside the router's repair span. The router re-points it every
	// wave (nil on unrecorded runs); it never influences the repair.
	Obs *obs.Worker
}

// NewScratch returns an empty workspace; it grows to the largest
// repair window it ever serves and is reused across nets and waves.
func NewScratch() *Scratch { return &Scratch{} }

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
	var dpT0 int64
	if scr.Obs != nil {
		dpT0 = scr.Obs.Now()
	}
	tr, _, err := Reembed(in, topo, win, bound, scr)
	if scr.Obs != nil {
		scr.Obs.DetailSpan(obs.StageRepair, -1, "reembed-dp", dpT0)
	}
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
	g := in.G
	win := g.NewWindow(winRect)
	scr.vid.Reset(int(win.Size()))

	// Dense-id the tree vertices in step order (deterministic) and link
	// the adjacency as half-edge lists, two half-edges per step.
	scr.verts, scr.head, scr.next, scr.to = scr.verts[:0], scr.head[:0], scr.next[:0], scr.to[:0]
	id := func(v grid.V) (int32, error) {
		idx := win.Index(v)
		if idx < 0 {
			return -1, fmt.Errorf("reembed: tree vertex %d outside repair window", v)
		}
		if got, ok := scr.vid.Get(idx); ok {
			return got, nil
		}
		nid := int32(len(scr.verts))
		scr.vid.Put(idx, nid)
		scr.verts, scr.head = append(scr.verts, v), append(scr.head, -1)
		return nid, nil
	}
	addHalf := func(from, t int32) {
		scr.next, scr.to = append(scr.next, scr.head[from]), append(scr.to, t)
		scr.head[from] = int32(len(scr.to) - 1)
	}
	rootID, err := id(in.Root)
	if err != nil {
		return nil, err
	}
	for _, st := range cached.Steps {
		a, err := id(st.From)
		if err != nil {
			return nil, err
		}
		b, err := id(st.Arc.To)
		if err != nil {
			return nil, err
		}
		addHalf(a, b)
		addHalf(b, a)
	}
	nv := int32(len(scr.verts))
	head, next, to := scr.head, scr.next, scr.to

	// Root the tree: BFS parents from the root vertex. Connected with
	// one step fewer than vertices, the steps are a tree; anything else
	// would repeat subtrees below.
	parent, order := scr.parent[:0], append(scr.order[:0], rootID)
	for i := int32(0); i < nv; i++ {
		parent = append(parent, -2) // unvisited
	}
	parent[rootID] = -1
	for qi := 0; qi < len(order); qi++ {
		v := order[qi]
		for ei := head[v]; ei >= 0; ei = next[ei] {
			c := to[ei]
			if parent[c] == -2 {
				parent[c] = v
				order = append(order, c)
			}
		}
	}
	scr.parent, scr.order = parent, order
	if int32(len(order)) != nv {
		return nil, fmt.Errorf("reembed: cached tree disconnected from root")
	}
	if int32(len(cached.Steps)) != nv-1 {
		return nil, fmt.Errorf("reembed: cached tree has a cycle")
	}

	// Children per vertex (adjacency order) and hosted sinks (sink
	// order), both as offset arrays over the dense ids.
	scr.kidOff, scr.kids = scr.kidOff[:0], scr.kids[:0]
	for v := int32(0); v < nv; v++ {
		scr.kidOff = append(scr.kidOff, int32(len(scr.kids)))
		for ei := head[v]; ei >= 0; ei = next[ei] {
			if c := to[ei]; parent[c] == v {
				scr.kids = append(scr.kids, c)
			}
		}
	}
	scr.kidOff = append(scr.kidOff, int32(len(scr.kids)))
	// sinkOff[v+1] first counts v's sinks, then runs as v's fill cursor,
	// ending on the start of v+1: the offsets, one slot further down.
	sinkOff, host := scr.sinkOff[:0], scr.host[:0]
	for i := int32(0); i < nv+2; i++ {
		sinkOff = append(sinkOff, 0)
	}
	for si, s := range in.Sinks {
		var vid int32 = -1
		if idx := win.Index(s.V); idx >= 0 {
			if got, ok := scr.vid.Get(idx); ok {
				vid = got
			}
		}
		if vid < 0 {
			return nil, fmt.Errorf("reembed: sink %d not on cached tree", si)
		}
		host = append(host, vid)
		sinkOff[vid+2]++
	}
	for v := int32(0); v < nv; v++ {
		sinkOff[v+2] += sinkOff[v+1]
	}
	sinks := append(scr.sinks[:0], host...)
	for si, vid := range host {
		sinks[sinkOff[vid+1]] = int32(si)
		sinkOff[vid+1]++
	}
	scr.sinkOff, scr.sinks, scr.host = sinkOff, sinks, host

	out := &nets.PlaneTree{}
	out.Nodes = append(out.Nodes, nets.PlaneNode{Pos: g.Pt(in.Root), Parent: -1, SinkIdx: -1})
	// Sinks hosted on the root vertex hang as leaves under node 0 (the
	// root node itself must stay a plain terminal).
	for _, si := range scr.sinksOf(rootID) {
		out.Nodes = append(out.Nodes, nets.PlaneNode{Pos: g.Pt(in.Root), Parent: 0, SinkIdx: si})
	}
	for _, c := range scr.kidsOf(rootID) {
		scr.attach(g, out, c, 0)
	}
	return out, nil
}

func (scr *Scratch) kidsOf(v int32) []int32  { return scr.kids[scr.kidOff[v]:scr.kidOff[v+1]] }
func (scr *Scratch) sinksOf(v int32) []int32 { return scr.sinks[scr.sinkOff[v]:scr.sinkOff[v+1]] }

// attach materializes the topology node for the subtree entered at
// dense vertex v under PlaneTree node parentNode, splicing pass-through
// chains on the way down.
func (scr *Scratch) attach(g *grid.Graph, out *nets.PlaneTree, v, parentNode int32) {
	for len(scr.sinksOf(v)) == 0 && len(scr.kidsOf(v)) == 1 {
		v = scr.kidsOf(v)[0]
	}
	hosted, kids := scr.sinksOf(v), scr.kidsOf(v)
	if len(hosted) == 0 && len(kids) == 0 {
		return // dangling stub: carries nothing
	}
	n := nets.PlaneNode{Pos: g.Pt(scr.verts[v]), Parent: parentNode, SinkIdx: -1}
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
	for _, c := range kids {
		scr.attach(g, out, c, me)
	}
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

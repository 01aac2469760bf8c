package nets

import (
	"fmt"
	"sync"

	"costdist/internal/geom"
	"costdist/internal/grid"
)

// Step is one directed edge of an embedded tree: the arc taken from
// vertex From (Arc.To is the head).
type Step struct {
	From grid.V
	Arc  grid.Arc
}

// RTree is a Steiner tree embedded in the routing graph: a set of steps
// whose undirected union forms a tree over the touched vertices,
// containing the root and all sinks of its instance.
type RTree struct {
	Steps []Step
}

// BBox returns the plane bounding rectangle of the tree's vertices. An
// empty tree yields the empty rect.
func (tr *RTree) BBox(g *grid.Graph) geom.Rect {
	r := geom.EmptyRect()
	for _, st := range tr.Steps {
		r = r.Add(g.Pt(st.From))
		r = r.Add(g.Pt(st.Arc.To))
	}
	return r
}

// Eval is the decomposition of objective (1)+(3) for an embedded tree.
type Eval struct {
	// CongCost is Σ c(e) over tree edges.
	CongCost float64
	// DelayCost is Σ w(t)·delay(r,t) including bifurcation penalties.
	DelayCost float64
	// Total = CongCost + DelayCost, the paper's objective (1).
	Total float64
	// SinkDelay is delay_T(r,t) per sink (eq. (3)), in ps.
	SinkDelay []float64
	// WireSteps and Vias count non-via and via tree edges.
	WireSteps, Vias int
	// TrackGCells is the capacity-weighted wirelength in gcell units.
	TrackGCells float64
}

// scratch is what one PruneToTree or Evaluate call needs beyond its
// result: the rooting and the per-node passes' arrays. Calls borrow one
// from scratchPool, so a worker's steady state allocates only results.
type scratch struct {
	r        Rooted
	carries  []bool    // PruneToTree: the node's subtree holds a sink
	w, delay []float64 // Evaluate: subtree sink weight, delay from the root
	ws       []float64 // Evaluate: group weights at one node
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// PruneToTree turns an arbitrary multiset of steps into a valid RTree
// for the instance: the BFS spanning tree of the steps' union from the
// instance root (of repeated or parallel edges the earliest step
// survives), oriented away from the root and in BFS order, without the
// dangling stubs that lead to no sink. Construction algorithms whose
// path unions may overlap (topology embedding, the exact DP) funnel
// their output through this function; pruning can only remove
// congestion cost. It errors if some sink is disconnected.
func PruneToTree(in *Instance, steps []Step) (*RTree, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	r := &s.r
	r.Build(in.Root, steps, in.Sinks)
	n := r.N()
	s.carries = sized(s.carries, n)
	carries := s.carries
	clear(carries)
	for i, h := range r.Host {
		if h < 0 {
			return nil, fmt.Errorf("nets: sink %d disconnected after pruning", i)
		}
		carries[h] = true
	}
	kept := 0
	for i := n - 1; i > 0; i-- {
		if carries[i] {
			carries[r.Parent[i]] = true
			kept++
		}
	}
	out := &RTree{}
	if kept > 0 {
		out.Steps = make([]Step, 0, kept)
	}
	for i := int32(1); i < int32(n); i++ {
		if carries[i] {
			arc := steps[r.Step[i]].Arc
			arc.To = r.Vertex(i)
			out.Steps = append(out.Steps, Step{From: r.Vertex(r.Parent[i]), Arc: arc})
		}
	}
	return out, nil
}

// Evaluate computes objective (1) with the bifurcation delay model (3)
// for an embedded tree. It validates that the steps form a tree
// containing root and sinks; all four algorithms are scored through this
// single function so comparisons are apples-to-apples.
func Evaluate(in *Instance, tr *RTree) (*Eval, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	r := &s.r
	r.Build(in.Root, tr.Steps, in.Sinks)
	if !r.IsTree() {
		return nil, fmt.Errorf("nets: %d steps over %d vertices, %d of them connected to root %d: not a tree",
			len(tr.Steps), len(r.verts), r.N(), in.Root)
	}
	for i, h := range r.Host {
		if h < 0 {
			return nil, fmt.Errorf("nets: sink %d (vertex %d) not in tree", i, in.Sinks[i].V)
		}
	}

	ev := &Eval{SinkDelay: make([]float64, len(in.Sinks))}
	for _, st := range tr.Steps {
		ev.CongCost += in.C.ArcCost(st.Arc)
		if st.Arc.Via {
			ev.Vias++
		} else {
			ev.WireSteps++
			ev.TrackGCells += float64(in.G.ArcCapUse(st.Arc))
		}
	}

	// Subtree sink weights, bottom-up: a node's children (last first),
	// then its hosted sinks.
	n := int32(r.N())
	s.w, s.delay = sized(s.w, int(n)), sized(s.delay, int(n))
	w, delay := s.w, s.delay
	clear(w)
	for i := n - 1; i >= 0; i-- {
		for _, si := range r.SinksAt(i) {
			w[i] += in.Sinks[si].W
		}
		if i > 0 {
			w[r.Parent[i]] += w[i]
		}
	}

	// Top-down delay propagation. delay[i] is the delay from the root to
	// node i including all penalties accumulated on the way. The groups
	// at a node are its child edges, then the sinks it hosts.
	var noPenalty [1]float64 // of a node with a single group
	delay[0] = 0
	for i := int32(0); i < n; i++ {
		d := delay[i]
		lo, hi := r.KidOff[i], r.KidOff[i+1]
		hosted := r.SinksAt(i)
		pen := noPenalty[:]
		if int(hi-lo)+len(hosted) > 1 {
			ws := append(s.ws[:0], w[lo:hi]...)
			for _, si := range hosted {
				ws = append(ws, in.Sinks[si].W)
			}
			s.ws = ws
			pen = SplitPenalties(in.DBif, in.Eta, ws)
		}
		for c := lo; c < hi; c++ {
			delay[c] = d + pen[c-lo] + in.C.ArcDelay(tr.Steps[r.Step[c]].Arc)
		}
		for k, si := range hosted {
			ev.SinkDelay[si] = d + pen[int(hi-lo)+k]
		}
	}
	for i, sk := range in.Sinks {
		ev.DelayCost += sk.W * ev.SinkDelay[i]
	}
	ev.Total = ev.CongCost + ev.DelayCost
	return ev, nil
}

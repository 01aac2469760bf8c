// Package exact solves small cost-distance Steiner tree instances to
// optimality with a Dreyfus–Wagner-style dynamic program extended by
// delay weights and bifurcation penalties. It exists to validate the
// approximation quality of the fast algorithms: the paper's Tables I/II
// compare against the best of four heuristics, while tests in this
// repository additionally compare against the true optimum on instances
// the DP can afford (≲ 8 sinks over windows of a few thousand vertices).
//
// DP states: D[M][x] = minimum cost of an embedded tree that connects
// all sinks in mask M to vertex x, where every edge above a sub-tree
// carrying sink set A costs c(e) + w(A)·d(e), and joining two disjoint
// masks at a vertex pays β(w(A), w(B)) (eq. (2)). The recurrence
// alternates subset merges and Dijkstra relaxations, exactly as in
// Dreyfus–Wagner. The final answer is D[full][root].
package exact

import (
	"fmt"
	"math"
	"math/bits"

	"costdist/internal/grid"
	"costdist/internal/heaps"
	"costdist/internal/nets"
)

// maxSinks bounds the DP's subset dimension.
const maxSinks = 12

// Result carries the DP's certified bounds. The DP value LowerBound is
// a true lower bound on the optimum: any tree can be simulated by the
// DP. The reconstructed tree is a feasible solution whose evaluated
// objective is Total (an upper bound). When dbif = 0 the two always
// coincide, so the DP is exact; with dbif > 0 the DP may price two
// disjoint-mask subtrees that share edges without the bifurcation
// penalties their union incurs, leaving a (rare, small) gap.
type Result struct {
	// LowerBound is D[full][root], a certified lower bound on OPT.
	LowerBound float64
	// Total is the evaluated objective of Tree (a feasible upper bound).
	Total float64
	Tree  *nets.RTree
	// Goal carries the goal-oriented solver's search statistics; it is
	// zero for results produced by the DP.
	Goal GoalStats
}

type traceKind uint8

const (
	traceNone  traceKind = iota // base: the sink vertex itself
	traceMerge                  // split into two masks at this vertex
	traceEdge                   // arrived via an arc from pred
)

type trace struct {
	kind  traceKind
	maskA uint32 // for merge
	pred  int32  // window index, for edge
	arc   grid.Arc
}

// Solve returns an optimal cost-distance Steiner tree for the instance.
// It errors out when the instance exceeds the DP's size limits.
func Solve(in *nets.Instance) (*Result, error) {
	k := len(in.Sinks)
	if k > maxSinks {
		return nil, fmt.Errorf("exact: %d sinks exceeds limit %d", k, maxSinks)
	}
	win := in.G.NewWindow(in.Win)
	size := win.Size()
	if int64(size)*(1<<uint(k)) > 64<<20 {
		return nil, fmt.Errorf("exact: state space too large (%d vertices × 2^%d)", size, k)
	}
	if k == 0 {
		return &Result{Tree: &nets.RTree{}}, nil
	}

	full := uint32(1<<uint(k)) - 1
	maskW := make([]float64, full+1)
	for m := uint32(1); m <= full; m++ {
		lsb := m & (-m)
		maskW[m] = maskW[m^lsb] + in.Sinks[bits.TrailingZeros32(lsb)].W
	}

	D := make([][]float64, full+1)
	T := make([][]trace, full+1)
	for m := uint32(1); m <= full; m++ {
		D[m] = make([]float64, size)
		T[m] = make([]trace, size)
		for i := range D[m] {
			D[m][i] = math.Inf(1)
		}
	}

	// Base cases: singletons.
	for s := 0; s < k; s++ {
		idx := win.Index(in.Sinks[s].V)
		if idx < 0 {
			return nil, fmt.Errorf("exact: sink %d outside window", s)
		}
		m := uint32(1) << uint(s)
		D[m][idx] = 0
		dijkstra(in, win, D[m], T[m], maskW[m])
	}

	// Increasing masks: merge then relax.
	for m := uint32(1); m <= full; m++ {
		if m&(m-1) == 0 {
			continue // singleton, done above
		}
		dm := D[m]
		tm := T[m]
		// Subset merge: iterate proper submasks a with a < m^a to halve work.
		for a := (m - 1) & m; a > 0; a = (a - 1) & m {
			b := m ^ a
			if a > b {
				continue
			}
			beta := nets.Beta(in.DBif, in.Eta, maskW[a], maskW[b])
			da, db := D[a], D[b]
			for x := int32(0); x < size; x++ {
				if v := da[x] + db[x] + beta; v < dm[x] {
					dm[x] = v
					tm[x] = trace{kind: traceMerge, maskA: a}
				}
			}
		}
		dijkstra(in, win, dm, tm, maskW[m])
	}

	rootIdx := win.Index(in.Root)
	if rootIdx < 0 {
		return nil, fmt.Errorf("exact: root outside window")
	}
	total := D[full][rootIdx]
	if math.IsInf(total, 1) {
		return nil, fmt.Errorf("exact: root unreachable")
	}

	// Reconstruct.
	var steps []nets.Step
	type frame struct {
		mask uint32
		x    int32
	}
	stack := []frame{{full, rootIdx}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		tr := T[f.mask][f.x]
		switch tr.kind {
		case traceNone:
			// Singleton at its own sink vertex: done.
		case traceMerge:
			stack = append(stack, frame{tr.maskA, f.x}, frame{f.mask ^ tr.maskA, f.x})
		case traceEdge:
			steps = append(steps, nets.Step{From: win.Vertex(tr.pred), Arc: tr.arc})
			stack = append(stack, frame{f.mask, tr.pred})
		}
	}
	rt, err := nets.PruneToTree(in, steps)
	if err != nil {
		return nil, err
	}
	ev, err := nets.Evaluate(in, rt)
	if err != nil {
		return nil, fmt.Errorf("exact: reconstructed tree invalid: %w", err)
	}
	return &Result{LowerBound: total, Total: ev.Total, Tree: rt}, nil
}

// dijkstra relaxes dist over the window under metric c + w·d, updating
// traces for vertices improved via edges.
func dijkstra(in *nets.Instance, win grid.Window, dist []float64, tr []trace, w float64) {
	var h heaps.Lazy[int32]
	for x := int32(0); x < int32(len(dist)); x++ {
		if !math.IsInf(dist[x], 1) {
			h.Push(dist[x], x)
		}
	}
	costs := in.C
	g := in.G
	for h.Len() > 0 {
		k, x := h.Pop()
		if k > dist[x] {
			continue
		}
		v := win.Vertex(x)
		g.Arcs(v, win.R, func(a grid.Arc) bool {
			y := win.Index(a.To)
			if y < 0 {
				return true
			}
			nd := k + costs.ArcCost(a) + w*costs.ArcDelay(a)
			if nd < dist[y] {
				dist[y] = nd
				tr[y] = trace{kind: traceEdge, pred: x, arc: a}
				h.Push(nd, y)
			}
			return true
		})
	}
}

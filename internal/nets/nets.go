// Package nets defines the cost-distance Steiner tree problem instance
// (paper eq. (1)) together with the two tree representations shared by
// all algorithms:
//
//   - PlaneTree: a Steiner topology in the gcell plane, produced by the
//     baseline constructions (L1, shallow-light, Prim-Dijkstra) before
//     they are embedded into the routing graph;
//   - RTree: a tree embedded in the 3D routing graph, the common output
//     of all four algorithms.
//
// It also implements the bifurcation delay model: the per-branch penalty
// split λ of eq. (2), the pairwise merge penalty β, and the objective
// evaluator of eqs. (1) and (3) used for every apples-to-apples
// comparison in the experiments.
package nets

import (
	"costdist/internal/geom"
	"costdist/internal/grid"
)

// Sink is one net sink: a vertex of the routing graph and its delay
// weight w(t) (criticality price from the Lagrangean relaxation).
type Sink struct {
	V grid.V
	W float64
}

// Instance is one cost-distance Steiner tree problem (G, S, r, w, c, d,
// dbif, η).
type Instance struct {
	G     *grid.Graph
	C     *grid.Costs
	Root  grid.V
	Sinks []Sink
	// DBif is the total bifurcation penalty per branching; Eta is the
	// minimum share either branch must absorb (0 ≤ η ≤ 1/2).
	DBif float64
	Eta  float64
	// Win restricts all path searches to a plane rectangle.
	Win geom.Rect
	// Seed drives the CD algorithm's random representative draw
	// (Algorithm 1 line 7), which runs only with ImproveSteiner (§III-D)
	// off; with it on, the CD algorithm draws no random number.
	Seed uint64
	// Budgets optionally carries per-sink delay budgets in ps — the
	// globally optimized budgets from the resource sharing algorithm
	// (ref [13]) that the shallow-light baseline consumes (§IV-A).
	// nil means "use plain L1 distance bounds".
	Budgets []float64
}

// T returns the number of terminals |S ∪ {r}|.
func (in *Instance) T() int { return len(in.Sinks) + 1 }

// TermPts returns the plane positions of root and sinks.
func (in *Instance) TermPts() []geom.Pt {
	out := make([]geom.Pt, 0, in.T())
	out = append(out, in.G.Pt(in.Root))
	for _, s := range in.Sinks {
		out = append(out, in.G.Pt(s.V))
	}
	return out
}

// DefaultWindow returns the terminal bounding box expanded by margin
// gcells and clamped to the grid; a margin of roughly half the bbox
// half-perimeter plus a constant works well in practice.
func (in *Instance) DefaultWindow(margin int32) geom.Rect {
	return geom.BBox(in.TermPts()).Expand(margin, in.G.NX, in.G.NY)
}

// Beta is the minimum possible weighted delay penalty β(w,w') when
// merging two subtrees with total delay weights w and w': the branch
// with larger weight takes the minimum share η of dbif.
func Beta(dbif, eta, w1, w2 float64) float64 {
	if w1 < w2 {
		w1, w2 = w2, w1
	}
	return dbif * (eta*w1 + (1-eta)*w2)
}

// mergeNode is a node of the binarization tree over sibling groups.
type mergeNode struct {
	left, right *mergeNode
	leaf        int // leaf group index, -1 for internal
	w           float64
}

func leafNode(i int, w float64) *mergeNode { return &mergeNode{leaf: i, w: w} }

func join(a, b *mergeNode) *mergeNode {
	return &mergeNode{left: a, right: b, leaf: -1, w: a.w + b.w}
}

// bestMergeTree returns the binarization of the groups minimizing the
// total weighted bifurcation penalty Σ_merges β(wA, wB). Exact for k ≤ 5
// (exhaustive over pairings); greedy lightest-pair Huffman for larger k,
// which is optimal at η = 0.5 and near-optimal otherwise — branchings
// with more than five children essentially never occur in routing trees.
func bestMergeTree(dbif, eta float64, weights []float64) *mergeNode {
	nodes := make([]*mergeNode, len(weights))
	for i, w := range weights {
		nodes[i] = leafNode(i, w)
	}
	if len(nodes) <= 5 {
		tree, _ := exhaustiveMerge(dbif, eta, nodes)
		return tree
	}
	// Greedy: repeatedly join the two lightest (stable by construction
	// order — slice scan keeps first occurrence on ties).
	for len(nodes) > 1 {
		i0, i1 := 0, 1
		if nodes[i1].w < nodes[i0].w {
			i0, i1 = i1, i0
		}
		for j := 2; j < len(nodes); j++ {
			if nodes[j].w < nodes[i0].w {
				i0, i1 = j, i0
			} else if nodes[j].w < nodes[i1].w {
				i1 = j
			}
		}
		merged := join(nodes[i0], nodes[i1])
		out := nodes[:0]
		for j, n := range nodes {
			if j != i0 && j != i1 {
				out = append(out, n)
			}
		}
		nodes = append(out, merged)
	}
	return nodes[0]
}

func exhaustiveMerge(dbif, eta float64, nodes []*mergeNode) (*mergeNode, float64) {
	if len(nodes) == 1 {
		return nodes[0], 0
	}
	var bestTree *mergeNode
	bestCost := 1e300
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			rest := make([]*mergeNode, 0, len(nodes)-1)
			for k, n := range nodes {
				if k != i && k != j {
					rest = append(rest, n)
				}
			}
			rest = append(rest, join(nodes[i], nodes[j]))
			tree, cost := exhaustiveMerge(dbif, eta, rest)
			cost += Beta(dbif, eta, nodes[i].w, nodes[j].w)
			if cost < bestCost {
				bestCost, bestTree = cost, tree
			}
		}
	}
	return bestTree, bestCost
}

// SplitPenalties distributes bifurcation penalties among k ≥ 1 sibling
// groups with the given subtree delay weights. A vertex with k outgoing
// branches is k−1 binary bifurcations; we binarize with bestMergeTree
// and assign λ per eq. (2) at every binary merge. The result is the
// extra delay (λ-sum × dbif) the sinks of each group incur at this
// vertex. For k == 1 the single entry is 0.
func SplitPenalties(dbif, eta float64, weights []float64) []float64 {
	out := make([]float64, len(weights))
	if len(weights) <= 1 || dbif == 0 {
		return out
	}
	tree := bestMergeTree(dbif, eta, weights)
	var walk func(n *mergeNode, acc float64)
	walk = func(n *mergeNode, acc float64) {
		if n.leaf >= 0 {
			out[n.leaf] = acc
			return
		}
		la, lb := lambdaPair(eta, n.left.w, n.right.w)
		walk(n.left, acc+la*dbif)
		walk(n.right, acc+lb*dbif)
	}
	walk(tree, 0)
	return out
}

// lambdaPair returns the penalty shares (λA, λB) per eq. (2): the side
// with the larger total delay weight takes the minimum share η.
func lambdaPair(eta, wA, wB float64) (float64, float64) {
	switch {
	case wA > wB:
		return eta, 1 - eta
	case wA < wB:
		return 1 - eta, eta
	default:
		return 0.5, 0.5
	}
}

// MinSplitPenaltyCost returns the minimum achievable total weighted
// penalty Σ w_i·extra_i over all binary merge orders of the groups,
// by exhaustive search. Exponential; test/reference use only.
func MinSplitPenaltyCost(dbif, eta float64, weights []float64) float64 {
	if len(weights) <= 1 || dbif == 0 {
		return 0
	}
	best := 1e300
	var rec func(ws []float64, acc float64)
	rec = func(ws []float64, acc float64) {
		if len(ws) == 1 {
			if acc < best {
				best = acc
			}
			return
		}
		for i := 0; i < len(ws); i++ {
			for j := i + 1; j < len(ws); j++ {
				merged := make([]float64, 0, len(ws)-1)
				for k, w := range ws {
					if k != i && k != j {
						merged = append(merged, w)
					}
				}
				merged = append(merged, ws[i]+ws[j])
				rec(merged, acc+Beta(dbif, eta, ws[i], ws[j]))
			}
		}
	}
	rec(weights, 0)
	return best
}

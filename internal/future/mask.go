package future

import (
	"fmt"
	"math/bits"

	"costdist/internal/geom"
	"costdist/internal/grid"
)

// MaskEstimator is the mask-aware future-cost lower bound of the
// goal-oriented exact solver (internal/exact). A label of that solver
// is a DP state (I, v): a tree connecting the sinks of mask I to
// vertex v, with every edge above a sub-tree carrying sink set A
// priced c(e) + w(A)·d(e). Est(I, p) lower-bounds the cost of any
// completion of such a state into a full solution — connecting v and
// every sink outside I to the root — from three admissible parts:
//
//   - congestion: the completion's edge union is connected and spans
//     {p, root} ∪ {sinks ∉ I}, so Σ c(e) ≥ MinCostPerGCell times the
//     half-perimeter of that point set's bounding box;
//   - carried delay: every edge of the completion's v→root path lies
//     above a sub-tree containing all of I, so its delay is weighted by
//     at least w(I); the path is at least L1(p, root) gcells long;
//   - remaining delay: every sink t ∉ I has a root path whose edges
//     carry at least w(t). Sink sets above an edge are disjoint unions,
//     so these terms and the carried-delay term never double-count: an
//     edge shared by the v→root path and sink t's path carries weight
//     w(A) ≥ w(I) + w(t).
//
// Admissibility contract: for every reachable state (I, v) of the DP
// recurrence, Est(I, pt(v)) ≤ D[full][root] − D[I][v] whenever (I, v)
// lies on an optimal DP decomposition — equivalently, Est never
// exceeds the optimum of the completion instance (root, sinks ∉ I,
// plus a pseudo-sink of weight w(I) at v). The property test in
// admissible_test.go checks exactly that against the Dreyfus–Wagner
// DP. Bifurcation penalties of the completion are bounded below by
// zero, which keeps the bound valid for any dbif ≥ 0.
//
// All per-mask tables are precomputed at construction: 2^k entries of
// the remaining-terminal bounding box, the remaining weighted-L1 delay
// floor and the mask weight. Est itself is O(1).
type MaskEstimator struct {
	minCost  float64
	minDelay float64
	root     geom.Pt

	maskW  []float64   // Σ w(t), t ∈ mask
	remBox []geom.Rect // bbox of root ∪ {sinks ∉ mask}
	remWL1 []float64   // Σ_{t ∉ mask} w(t)·L1(t, root)·minDelay
}

// maxMaskSinks bounds the subset dimension of the per-mask tables.
const maxMaskSinks = 20

// NewMaskEstimator builds the mask-aware bound for an instance with
// the given root plane position and per-sink plane positions and delay
// weights (index i of sinks is bit i of every mask).
func NewMaskEstimator(c *grid.Costs, root geom.Pt, sinks []geom.Pt, weights []float64) (*MaskEstimator, error) {
	k := len(sinks)
	if k != len(weights) {
		return nil, fmt.Errorf("future: %d sink positions, %d weights", k, len(weights))
	}
	if k > maxMaskSinks {
		return nil, fmt.Errorf("future: %d sinks exceeds mask bound limit %d", k, maxMaskSinks)
	}
	e := &MaskEstimator{
		minCost:  c.MinCostPerGCell(),
		minDelay: c.MinDelayPerGCell(),
		root:     root,
	}
	full := uint32(1)<<uint(k) - 1
	e.maskW = make([]float64, full+1)
	e.remBox = make([]geom.Rect, full+1)
	e.remWL1 = make([]float64, full+1)
	rootBox := geom.Rect{X0: root.X, Y0: root.Y, X1: root.X, Y1: root.Y}
	wl1 := make([]float64, k)
	for i, p := range sinks {
		wl1[i] = weights[i] * float64(geom.L1(p, root)) * e.minDelay
	}
	for m := uint32(0); m <= full; m++ {
		if m > 0 {
			lsb := m & (-m)
			e.maskW[m] = e.maskW[m^lsb] + weights[bits.TrailingZeros32(lsb)]
		}
		box := rootBox
		rem := 0.0
		for i := 0; i < k; i++ {
			if m&(uint32(1)<<uint(i)) == 0 {
				box = box.Add(sinks[i])
				rem += wl1[i]
			}
		}
		e.remBox[m] = box
		e.remWL1[m] = rem
	}
	return e, nil
}

// W returns the total delay weight of the sinks in mask.
func (e *MaskEstimator) W(mask uint32) float64 { return e.maskW[mask] }

// Est returns the admissible completion-cost lower bound for a state
// with sink mask `mask` at plane position p. At the goal state (full
// mask, p = root) it is 0.
func (e *MaskEstimator) Est(mask uint32, p geom.Pt) float64 {
	cong := float64(e.remBox[mask].Add(p).HalfPerimeter()) * e.minCost
	carried := e.maskW[mask] * float64(geom.L1(p, e.root)) * e.minDelay
	return cong + carried + e.remWL1[mask]
}

package router

import (
	"math"

	"costdist/internal/cong"
	"costdist/internal/geom"
	"costdist/internal/grid"
	"costdist/internal/nets"
)

// incHalo is the halo, in gcells, added around a cached tree's bounding
// box to form the net's candidate region. Price changes inside the
// region make the net a rip-up candidate; changes further away cannot
// move the cached tree's own cost and leave it in place.
const incHalo = 1

// computeDirty is the dirty-net scheduler of the skip policy
// (Options.Incremental). It returns the ordered work list of the next
// wave and the number of congestion segments that changed beyond
// tolerance (the wave's delta volume). It judges every net against the
// solve snapshot in its record (runState.adopt): the delay weights,
// budgets and priced congestion cost its cached tree was solved under,
// and the plane region the tree occupies. The congestion delta arrives
// pre-computed from the previous wave's fused price update (pendRects,
// against the tracker's reference snapshot of the multipliers); a pass
// with none stashed has no congestion candidates, and the seeded pass
// of a warm start's first wave runs before any update.
//
// A net goes on the work list when it has no cached solve, when the
// seed of a warm start's first wave marks it, or — on every other pass
// — when driftedNet finds one of:
//
//   - congestion drift: the net's region overlaps a congestion rectangle
//     the delta tracker reported changed (a query of an R-tree,
//     nets.WindowIndex, built over the regions for the pass), and the
//     priced cost of its cached tree under the current multipliers
//     drifted beyond IncrementalTol relative to the cost it was solved
//     at. A price spike next to — but not on — the tree leaves it clean;
//   - a sink delay weight drifted beyond tolerance since the last solve;
//   - a delay budget drifted, when the run's driver consumes budgets
//     (the fixed oracle, or a member of the Portfolio pool).
//
// Clean nets keep their cached tree and cached sink delays; only their
// usage is replayed into the wave's congestion accounting. With
// RepairTol ≥ 0 every work-list net with a cached tree takes the repair
// rung first — the worker re-embeds the cached topology
// (internal/reembed) under the current prices, weights and budgets and
// escalates to the oracle only when the result fails tryRepair's rules.
// Nets without a cached tree always solve in full.
//
// The rule is deliberately one-sided: a price drop away from the tree
// could in principle open a cheaper route that stays undiscovered until
// some change touches the tree itself. That is the approximation the
// tolerance knob trades against re-solve volume; the pricer keeps
// raising genuinely overloaded segments until every net crossing them
// goes dirty, so congestion violations cannot hide behind the cache.
func (r *runState) computeDirty(costs *grid.Costs) (work []int32, deltaSegs int) {
	seed, rects, deltaSegs := r.seed, r.pendRects, r.pendSegs
	r.seed, r.pendRects, r.pendSegs = nil, nil, 0
	clear(r.cand)
	if len(rects) > 0 {
		ix := nets.BuildWindowIndex(r.regions())
		for _, rect := range rects {
			ix.Query(rect, func(ni int32) { r.cand[ni] = true })
		}
	}
	for ni := range r.nets {
		switch n := &r.nets[ni]; {
		case n.snapW == nil || n.tree == nil: // never solved
		case seed != nil:
			if !seed[ni] {
				continue
			}
		case !r.driftedNet(ni, costs):
			continue
		}
		work = append(work, int32(ni))
	}
	return work, deltaSegs
}

// regions gathers every net's candidate region, in net order, for a
// window index.
func (r *runState) regions() []geom.Rect {
	rects := make([]geom.Rect, len(r.nets))
	for ni := range r.nets {
		rects[ni] = r.nets[ni].region
	}
	return rects
}

// drifted reports whether cur moved beyond the relative tolerance from
// the snapshot value.
func (r *runState) drifted(cur, snap float64) bool {
	return math.Abs(cur-snap) > r.opt.IncrementalTol*math.Abs(snap)
}

// driftedNet reports whether net ni, which has a cached solve, drifted
// from the inputs of that solve: the cached tree's priced cost (for a
// congestion candidate), a delay weight, or a delay budget.
func (r *runState) driftedNet(ni int, costs *grid.Costs) bool {
	n := &r.nets[ni]
	if r.cand[ni] {
		// Reprice the cached tree under the current multipliers: the
		// flat step cache yields the same sum, in the same order, as
		// walking the tree through costs.ArcCost.
		cur := 0.0
		for i, seg := range n.segs {
			cur += float64(costs.Mult[seg]) * n.base[i]
		}
		if r.drifted(cur, n.snapCost) {
			return true
		}
	}
	for k, x := range n.weights {
		if r.drifted(x, n.snapW[k]) {
			return true
		}
	}
	// Budgets only steer budget-consuming oracles (shallow-light); under
	// a driver that runs none, budget drift alone must not rip a net.
	if !r.drv.usesBudgets {
		return false
	}
	for k, x := range n.budgets {
		if r.drifted(x, n.snapB[k]) {
			return true
		}
	}
	return false
}

// replayUsage accumulates the capacity consumption of every cached tree
// into u, in net order then step order — the same float32 additions, in
// the same order, as walking each tree through Usage.AddArc.
func (r *runState) replayUsage(u *cong.Usage) {
	for ni := range r.nets {
		n := &r.nets[ni]
		for i, seg := range n.segs {
			u.U[seg] += n.capUse[i]
		}
	}
}

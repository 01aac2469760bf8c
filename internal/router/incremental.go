package router

import (
	"math"

	"costdist/internal/chipgen"
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

// incState is the wave loop's per-net solve record and, under the skip
// policy (Options.Incremental), its dirty-net scheduler. Every tree a
// run adopts under either policy lands here (runState.adopt calls
// noteSolved): the producing oracle feeds checkpoint provenance and the
// flat step caches feed the net-order usage replay. The scheduling half — computeDirty and the delta
// tracker, advanced only by the fused end-of-wave price update — only
// runs under the skip policy.
// Across waves it keeps, per net, the inputs its cached tree was solved
// under — delay weights, budgets and the tree's priced congestion cost —
// plus the plane region the tree occupies, and chip-wide a reference
// snapshot of the congestion multipliers (cong.DeltaTracker).
//
// computeDirty decides every net in one pass. A net goes on the work
// list when it has no cached solve, when the seed of a warm start's
// first wave marks it, or — on every other pass — when driftedNet finds
// one of:
//
//   - congestion drift: the net's region overlaps a congestion rectangle
//     the delta tracker reported changed (a query of an R-tree,
//     nets.WindowIndex, built over the regions for the pass), and the
//     priced cost of its cached tree under the current multipliers
//     drifted beyond IncrementalTol relative to the cost it was solved
//     at. A price spike next to — but not on — the tree leaves it clean;
//   - a sink delay weight drifted beyond tolerance since the last solve;
//   - a delay budget drifted, when the oracle behind the cached tree (or
//     the Portfolio pool that would replace it) consumes budgets.
//
// Clean nets keep their cached tree and cached sink delays; only their
// usage is replayed into the wave's congestion accounting. With
// RepairTol ≥ 0 (repairOn) every work-list net with a cached tree takes
// the repair rung first — the worker re-embeds the cached topology
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
type incState struct {
	g       *grid.Graph
	tol     float64
	drv     *driver
	tracker *cong.DeltaTracker
	// regions[ni] is the candidate region of net ni: cached tree bbox
	// (initially the terminal bbox) plus halo.
	regions []geom.Rect
	// lastW/lastB are copies of the weights/budgets each net was last
	// solved under, one entry per sink; nil lastW marks "never solved".
	// lastCost is the priced congestion cost of the cached tree at solve
	// time.
	lastW, lastB [][]float64
	lastCost     []float64
	// lastOracle[ni] is the table index of the oracle that produced
	// the cached tree (-1 before the first solve). Budget drift only
	// matters when the cached (or candidate) oracle consumes budgets.
	lastOracle []int16
	// cand[ni] marks the nets whose region overlaps a changed congestion
	// rectangle in the current pass; only they are repriced.
	cand []bool
	// repairOn enables the repair rung (skip policy with RepairTol ≥ 0).
	repairOn bool
	// fullCost[ni] is the priced congestion cost of net ni's last FULL
	// oracle solve. Unlike lastCost it is not rebaselined by adopted
	// repairs, so successive repairs accumulate drift against the last
	// real solve and the escalation rule (repaired cost >
	// (1+RepairTol)·fullCost) eventually fires instead of a congested net
	// dodging the oracle forever through small repair steps.
	fullCost []float64
	// seed, when non-nil, replaces the next computeDirty pass's drift
	// checks: the wave's work list is seed ∪ {never solved}. Warm starts
	// set it to make the resumed run's first wave solve exactly the
	// instance diff (RouteFrom); the checkpoint's prices are the clean
	// baseline, so pre-checkpoint residue must not re-dirty restored
	// nets.
	seed []bool

	// pendRects/pendSegs hold the delta-tracker result of the fused
	// end-of-wave price update (Pricer.UpdateTracked), the only change
	// source the next computeDirty reads. Empty when no update ran since
	// the last pass: at cold wave 0 the multipliers still equal the
	// tracker's reference, and after a quiesced warm wave they have not
	// moved since the last fused update advanced it, so no change exists.
	pendRects []geom.Rect
	pendSegs  int

	// steps[ni] caches net ni's embedded tree decomposed into flat
	// per-step arrays — segment id, congestion base cost, capacity
	// consumed — in tree step order. Repricing a candidate tree and
	// replaying a clean net's usage become tight array loops instead of
	// walks that re-derive both quantities from each grid.Arc; the
	// accumulation order is the step order either way, so the floating-
	// point results are bitwise unchanged.
	steps []netSteps
}

// netSteps is one cached tree's flat step decomposition.
type netSteps struct {
	segs   []int32
	base   []float64 // ArcCost(step) = Mult[segs[i]] * base[i]
	capUse []float32 // Usage.AddArc adds capUse[i] to segs[i]
}

// newIncState builds the scheduler for one chip.
func newIncState(chip *chipgen.Chip, drv *driver, opt Options) *incState {
	nl := chip.NL
	regions := make([]geom.Rect, len(nl.Nets))
	for ni, n := range nl.Nets {
		r := geom.EmptyRect()
		r = r.Add(nl.Cells[n.Driver].Pos)
		for _, s := range n.Sinks {
			r = r.Add(nl.Cells[s].Pos)
		}
		regions[ni] = r.Expand(incHalo, chip.G.NX, chip.G.NY)
	}
	s := &incState{
		g:          chip.G,
		tol:        opt.IncrementalTol,
		drv:        drv,
		tracker:    cong.NewDeltaTracker(chip.G, opt.IncrementalTol),
		regions:    regions,
		lastW:      make([][]float64, len(nl.Nets)),
		lastB:      make([][]float64, len(nl.Nets)),
		lastCost:   make([]float64, len(nl.Nets)),
		lastOracle: make([]int16, len(nl.Nets)),
		cand:       make([]bool, len(nl.Nets)),
		repairOn:   opt.Incremental && opt.RepairTol >= 0,
		fullCost:   make([]float64, len(nl.Nets)),
		steps:      make([]netSteps, len(nl.Nets)),
	}
	for i := range s.lastOracle {
		s.lastOracle[i] = -1
	}
	return s
}

// drifted reports whether cur moved beyond the relative tolerance from
// the snapshot value.
func (s *incState) drifted(cur, snap float64) bool {
	return math.Abs(cur-snap) > s.tol*math.Abs(snap)
}

// computeDirty returns the ordered work list of the next wave and the
// number of congestion segments that changed beyond tolerance (the
// wave's delta volume). The delta arrives pre-computed from the previous
// wave's fused price update (pendRects); a pass with none stashed has no
// congestion candidates, and the seeded pass of a warm start's first
// wave runs before any update.
func (s *incState) computeDirty(costs *grid.Costs, trees []*nets.RTree, weights, budgets [][]float64) (work []int32, deltaSegs int) {
	seed, rects, deltaSegs := s.seed, s.pendRects, s.pendSegs
	s.seed, s.pendRects, s.pendSegs = nil, nil, 0
	clear(s.cand)
	if len(rects) > 0 {
		ix := nets.BuildWindowIndex(s.regions)
		for _, r := range rects {
			ix.Query(r, func(ni int32) { s.cand[ni] = true })
		}
	}
	for ni := range trees {
		switch {
		case s.lastW[ni] == nil || trees[ni] == nil: // never solved
		case seed != nil:
			if !seed[ni] {
				continue
			}
		case !s.driftedNet(ni, costs, weights[ni], budgets[ni]):
			continue
		}
		work = append(work, int32(ni))
	}
	return work, deltaSegs
}

// driftedNet reports whether net ni, which has a cached solve, drifted
// from the inputs of that solve: the cached tree's priced cost (for a
// congestion candidate), a delay weight w, or a delay budget b.
func (s *incState) driftedNet(ni int, costs *grid.Costs, w, b []float64) bool {
	if s.cand[ni] {
		// Reprice the cached tree under the current multipliers: the
		// flat step cache yields the same sum, in the same order, as
		// walking the tree through costs.ArcCost.
		sc := &s.steps[ni]
		cur := 0.0
		for i, seg := range sc.segs {
			cur += float64(costs.Mult[seg]) * sc.base[i]
		}
		if s.drifted(cur, s.lastCost[ni]) {
			return true
		}
	}
	for k, x := range w {
		if s.drifted(x, s.lastW[ni][k]) {
			return true
		}
	}
	// Budgets only steer budget-consuming oracles (shallow-light);
	// others ignore them, so budget drift alone must not rip their nets.
	if !s.drv.usesBudgets(int(s.lastOracle[ni])) {
		return false
	}
	for k, x := range b {
		if s.drifted(x, s.lastB[ni][k]) {
			return true
		}
	}
	return false
}

// noteSolved snapshots the inputs net ni was just solved under — timing
// values, the tree's priced congestion cost, its plane region and the
// oracle that produced the tree. Worker goroutines call it for disjoint
// nets, so no locking is needed.
func (s *incState) noteSolved(ni int, w, b []float64, tr *nets.RTree, congCost float64, oracleIdx int) {
	s.lastW[ni] = append(s.lastW[ni][:0], w...)
	s.lastB[ni] = append(s.lastB[ni][:0], b...)
	s.lastCost[ni] = congCost
	s.lastOracle[ni] = int16(oracleIdx)
	if r := tr.BBox(s.g); !r.Empty() {
		s.regions[ni] = r.Expand(incHalo, s.g.NX, s.g.NY)
	}
	s.buildSteps(ni, tr)
}

// buildSteps (re)derives net ni's flat step cache from its tree.
func (s *incState) buildSteps(ni int, tr *nets.RTree) {
	sc := &s.steps[ni]
	sc.segs = sc.segs[:0]
	sc.base = sc.base[:0]
	sc.capUse = sc.capUse[:0]
	for _, st := range tr.Steps {
		a := st.Arc
		var base float64
		if a.Via {
			base = s.g.Layers[a.L].ViaCost
		} else {
			base = s.g.Layers[a.L].Wires[a.WT].CostPerGCell
		}
		sc.segs = append(sc.segs, a.Seg)
		sc.base = append(sc.base, base)
		sc.capUse = append(sc.capUse, s.g.ArcCapUse(a))
	}
}

// replayUsage accumulates the capacity consumption of every cached tree
// into u, in net order then step order — the same float32 additions, in
// the same order, as walking each tree through Usage.AddArc.
func (s *incState) replayUsage(u *cong.Usage, trees []*nets.RTree) {
	for ni, tr := range trees {
		if tr == nil {
			continue
		}
		sc := &s.steps[ni]
		for i, seg := range sc.segs {
			u.U[seg] += sc.capUse[i]
		}
	}
}

package oracle

import (
	"costdist/internal/geom"
	"costdist/internal/nets"
)

// The Auto driver places every net into one of four bands from its
// topology freedom and its Lagrangean timing prices — the same inputs
// the oracles themselves consume — so the choice is a pure function of
// the instance and stays thread-count independent:
//
//   - trivial: at most trivialSinks sinks — the Steiner topology is
//     unique, so every oracle degenerates to optimal path embedding and
//     the expensive one cannot add value. Routed with rsmt regardless of
//     timing prices.
//   - critical: some sink's delay weight reached the critical threshold
//     — the timing price is high enough that tree delay dominates the
//     objective. Routed with exact: the goal-oriented exact tier, which
//     certifies or beats the CD tree on nets within its deterministic
//     budget and falls back to plain CD beyond it.
//   - tight: not critical, but some sink's delay budget is below
//     tightBudgetRatio times the fastest delay physically achievable for
//     that sink — there is little slack to waste on detours. Routed with
//     sl, the budget-aware baseline.
//   - relaxed: everything else; tree cost is all that matters. Routed
//     with rsmt, the cheapest oracle.
//
// Under heavy timing pressure the weight signal saturates (most nets
// end up with some maximally-weighted sink), which is exactly when the
// trivial band carries the selection: single-sink nets — typically the
// plurality of a netlist — have no bifurcations to optimize, so routing
// them with the cheap oracle sheds CD solves at (near-)zero objective
// cost.
const (
	trivialSinks     = 1
	tightBudgetRatio = 1.25
)

// The oracle of each band, as table indices.
var (
	relaxedOracle  = Index("rsmt")
	tightOracle    = Index("sl")
	criticalOracle = Index("exact")
)

// Band returns the table index of the oracle that routes one net, given
// the critical delay-weight threshold (the router derives it as twice
// its weight floor: a net is critical once pricing has at least doubled
// one of its sink weights), the net's per-sink delay weights, delay
// budgets (ps, may be nil) and fastest achievable delays (ps, may be
// nil). The router's solve path and the incremental engine's
// invalidation check share it, so both always agree on the selected
// oracle.
func Band(critical float64, ws, budgets, fastest []float64) int {
	if len(ws) <= trivialSinks {
		return relaxedOracle
	}
	if critical > 0 {
		for _, w := range ws {
			if w >= critical {
				return criticalOracle
			}
		}
	}
	if budgets != nil && fastest != nil {
		for k, b := range budgets {
			if k < len(fastest) && b < tightBudgetRatio*fastest[k] {
				return tightOracle
			}
		}
	}
	return relaxedOracle
}

// InstanceBand applies Band to a standalone instance, deriving the
// fastest achievable per-sink delays from L1 distance at the fastest
// wire (the §III-C admissible bound).
func InstanceBand(critical float64, in *nets.Instance) int {
	ws := make([]float64, len(in.Sinks))
	for i, sk := range in.Sinks {
		ws[i] = sk.W
	}
	var fastest []float64
	if in.Budgets != nil {
		fastest = FastestSinkDelays(in)
	}
	return Band(critical, ws, in.Budgets, fastest)
}

// FastestSinkDelays returns, per sink, an admissible lower bound on its
// root-to-sink delay: L1 distance times the fastest delay per gcell.
func FastestSinkDelays(in *nets.Instance) []float64 {
	d := in.C.MinDelayPerGCell()
	rootPt := in.G.Pt(in.Root)
	out := make([]float64, len(in.Sinks))
	for k := range in.Sinks {
		out[k] = float64(geom.L1(rootPt, in.G.Pt(in.Sinks[k].V))) * d
	}
	return out
}

package oracle

import (
	"fmt"

	"costdist/internal/geom"
	"costdist/internal/nets"
)

// Selection configures the adaptive per-net oracle selector and the
// portfolio driver. The selector places every net into one of four
// bands from its topology freedom and its Lagrangean timing prices —
// the same inputs the oracles themselves consume — so the choice is a
// pure function of the instance and stays thread-count independent:
//
//   - trivial: at most TrivialSinks sinks — the Steiner topology is
//     (near-)unique, so every oracle degenerates to optimal path
//     embedding and the expensive one cannot add value. Routed with
//     Relaxed regardless of timing prices.
//   - critical: some sink's delay weight reached CriticalWeight — the
//     timing price is high enough that tree delay dominates the
//     objective. Routed with Critical (default "exact": the goal-
//     oriented exact tier, which certifies or beats the CD tree on
//     nets within its deterministic budget and falls back to plain CD
//     beyond it).
//   - tight: not critical, but some sink's delay budget is within
//     TightBudgetRatio of the fastest delay physically achievable for
//     that sink — there is little slack to waste on detours. Routed
//     with Tight (default "sl", the budget-aware baseline).
//   - relaxed: everything else; tree cost is all that matters. Routed
//     with Relaxed (default "rsmt", the cheapest oracle).
//
// Under heavy timing pressure the weight signal saturates (most nets
// end up with some maximally-weighted sink), which is exactly when the
// trivial band carries the selection: single-sink nets — typically the
// plurality of a netlist — have no bifurcations to optimize, so
// routing them with the cheap oracle sheds CD solves at (near-)zero
// objective cost.
type Selection struct {
	// TrivialSinks is the sink-count bound of the trivial band: a net
	// with at most this many sinks is routed with Relaxed regardless of
	// its timing prices. 0 disables the band (the router's default is
	// 1: only single-sink nets, whose topology is unique).
	TrivialSinks int
	// CriticalWeight is the delay-weight threshold of the critical
	// band. 0 means "derive from the router's weight floor" (the router
	// substitutes 2 × WeightBase, i.e. a net is critical once pricing
	// has at least doubled a sink's weight above the uncritical floor).
	CriticalWeight float64
	// TightBudgetRatio is the budget tightness threshold: a sink whose
	// delay budget is below TightBudgetRatio times its fastest
	// achievable delay makes the net budget-tight. 0 disables the band.
	TightBudgetRatio float64
	// Critical, Tight and Relaxed name the oracle of each band; empty
	// fields take the defaults cd / sl / rsmt.
	Critical, Tight, Relaxed string
	// Portfolio lists the oracle names the portfolio driver races on
	// every net; empty means "every oracle except the exact tier" —
	// racing an exact search on every net of a netlist would
	// dominate the run's cost, so the premium oracle must be opted into
	// the pool by listing it explicitly.
	Portfolio []string
}

// withDefaults fills empty band oracle names.
func (s Selection) withDefaults() Selection {
	if s.Critical == "" {
		s.Critical = "exact"
	}
	if s.Tight == "" {
		s.Tight = "sl"
	}
	if s.Relaxed == "" {
		s.Relaxed = "rsmt"
	}
	return s
}

// Validate resolves the band (and portfolio) oracle names against the
// oracle table, returning the canonical selection or an error naming
// the available set.
func (s Selection) Validate() (Selection, error) {
	s = s.withDefaults()
	for _, name := range []*string{&s.Critical, &s.Tight, &s.Relaxed} {
		c := Canonical(*name)
		if Index(c) < 0 {
			return s, fmt.Errorf("oracle: unknown selection oracle %q (available: %v)", *name, Names())
		}
		*name = c
	}
	s.Portfolio = append([]string(nil), s.Portfolio...)
	for i, name := range s.Portfolio {
		c := Canonical(name)
		if Index(c) < 0 {
			return s, fmt.Errorf("oracle: unknown portfolio oracle %q (available: %v)", name, Names())
		}
		s.Portfolio[i] = c
	}
	return s, nil
}

// Band is the selector's verdict on one net: which of the Critical,
// Tight and Relaxed oracles routes it (the trivial band routes with
// Relaxed).
type Band int

const (
	BandRelaxed Band = iota
	BandTight
	BandCritical
)

// Band classifies one net given its per-sink delay weights, delay
// budgets (ps, may be nil) and fastest achievable delays (ps, may be
// nil). It is the low-level form shared by the router's solve path and
// the incremental engine's invalidation check, so both always agree on
// the selected oracle.
func (s Selection) Band(ws, budgets, fastest []float64) Band {
	if s.TrivialSinks > 0 && len(ws) <= s.TrivialSinks {
		return BandRelaxed
	}
	if s.CriticalWeight > 0 {
		for _, w := range ws {
			if w >= s.CriticalWeight {
				return BandCritical
			}
		}
	}
	if s.TightBudgetRatio > 0 && budgets != nil && fastest != nil {
		for k, b := range budgets {
			if k < len(fastest) && b < s.TightBudgetRatio*fastest[k] {
				return BandTight
			}
		}
	}
	return BandRelaxed
}

// InstanceBand applies Band to a standalone instance, deriving the
// fastest achievable per-sink delays from L1 distance at the fastest
// wire (the §III-C admissible bound).
func (s Selection) InstanceBand(in *nets.Instance) Band {
	ws := make([]float64, len(in.Sinks))
	for i, sk := range in.Sinks {
		ws[i] = sk.W
	}
	var fastest []float64
	if in.Budgets != nil {
		fastest = FastestSinkDelays(in)
	}
	return s.Band(ws, in.Budgets, fastest)
}

// Oracle returns the oracle name of band b, empty fields taking their
// defaults.
func (s Selection) Oracle(b Band) string {
	s = s.withDefaults()
	return [...]string{BandRelaxed: s.Relaxed, BandTight: s.Tight, BandCritical: s.Critical}[b]
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

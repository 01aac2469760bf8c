package router

import (
	"context"
	"fmt"
	"math"

	"costdist/internal/chipgen"
	"costdist/internal/cong"
	"costdist/internal/geom"
	"costdist/internal/grid"
	"costdist/internal/nets"
	"costdist/internal/obs"
	"costdist/internal/sta"
)

// State is the externalized router state: the warm-start state the
// wave loop carries from wave to wave — per-net cached trees with their
// timing prices, the congestion multipliers, and the STA-derived sink
// delays. A State is produced by Checkpoint() at the end of a run and
// consumed by RouteFrom, which diffs a (possibly edited) chip against it
// and re-solves only the nets the edit invalidated. io.go gives it a
// versioned, byte-stable wire form (MarshalCheckpoint/UnmarshalCheckpoint).
//
// Checkpoints are rebaselined: the per-net weight/budget baselines are
// the run's final weights and budgets, and RouteFrom derives the rest of
// the scheduler's baselines from the restored prices — the delta
// tracker's reference is Mult, and each tree's snapshot cost is its
// congestion cost repriced under Mult. The checkpoint therefore asserts
// "this solution is converged and clean at these prices" — a warm start
// re-solves nothing until either the instance diff or post-resume price
// drift invalidates a net. That is what makes a zero-perturbation warm
// start a no-op that reproduces the cold result exactly.
type State struct {
	// Method is the canonical driver name of the producing run. A warm
	// start under a different method distrusts every cached tree (the
	// wrong oracle produced them) and re-solves the whole chip, while
	// still reusing the restored congestion prices.
	Method string

	// NX, NY, Layers and LayerDirs identify the routing grid the state
	// is bound to. Chips with equal dimensions and layer directions
	// share vertex and segment numbering, so trees and multiplier
	// vectors transfer between them directly.
	NX, NY    int32
	Layers    int
	LayerDirs string // "H"/"V" per layer, e.g. "HVHVHVHV"

	// Cap is the capacity vector of the routed chip's grid; RouteFrom
	// diffs it against the new chip's capacities and dirties nets whose
	// region overlaps an edit. Mult is the congestion multiplier vector
	// after the run; it also becomes the restored run's drift reference.
	Cap  []float32
	Mult []float32

	// Nets holds one entry per net of the routed chip, in netlist
	// order.
	Nets []NetState
}

// NetState is one net's externalized state: its terminal signature
// (the diff key), the cached tree with the solve snapshot the dirty-net
// scheduler judges drift against, and the cached sink delays the STA
// replays for clean nets. It names no producing oracle: every tree of a
// run comes from the run's driver (State.Method), which alone decides
// whether budget drift re-solves a net.
type NetState struct {
	Sig nets.PinSig
	// Weights and Budgets are the net's Lagrangean timing prices at
	// checkpoint time; they double as the last-solve baselines of the
	// restored dirty-net scheduler (checkpoints are rebaselined).
	Weights []float64
	Budgets []float64
	// Delays are the routed sink delays of the cached tree in ps.
	Delays []float64
	// Tree is the cached embedded tree (nil if the net was never
	// routed).
	Tree *nets.RTree
}

// CompatibleWith reports whether the state can warm-start routing on
// the given grid: equal dimensions, layer count and directions (which
// together fix the vertex and segment numbering), matching segment
// counts for the stored vectors, and numbers inside the ranges a run
// produces. It refuses, naming the segment or the net and sink, a
// multiplier that is NaN, infinite or below 1 (the pricer's floor, on
// which the oracles' A* bound rests), a weight or delay that is NaN,
// infinite or negative, and a budget that is NaN or negative (+Inf, a
// sink without a timing endpoint downstream, is legal).
func (st *State) CompatibleWith(g *grid.Graph) error {
	if g.NX != st.NX || g.NY != st.NY || len(g.Layers) != st.Layers {
		return fmt.Errorf("router: checkpoint grid %dx%dx%d incompatible with chip grid %dx%dx%d",
			st.NX, st.NY, st.Layers, g.NX, g.NY, len(g.Layers))
	}
	if d := g.LayerDirs(); d != st.LayerDirs {
		return fmt.Errorf("router: checkpoint layer directions %s incompatible with chip %s", st.LayerDirs, d)
	}
	if int(g.NumSegs()) != len(st.Cap) || len(st.Cap) != len(st.Mult) {
		return fmt.Errorf("router: checkpoint has %d/%d cap/mult segments, chip has %d",
			len(st.Cap), len(st.Mult), g.NumSegs())
	}
	for s, m := range st.Mult {
		if !(m >= 1) || math.IsInf(float64(m), 1) {
			return fmt.Errorf("router: checkpoint segment %d has multiplier %v; multipliers are finite and ≥ 1", s, m)
		}
	}
	for ni := range st.Nets {
		ns := &st.Nets[ni]
		for _, v := range [...]struct {
			name string
			xs   []float64
			inf  bool // +Inf is legal
		}{{"weight", ns.Weights, false}, {"delay", ns.Delays, false}, {"budget", ns.Budgets, true}} {
			for k, x := range v.xs {
				if !(x >= 0) || (math.IsInf(x, 1) && !v.inf) {
					return fmt.Errorf("router: checkpoint net %d sink %d has %s %v; weights and delays are finite and ≥ 0, budgets ≥ 0 or +Inf", ni, k, v.name, x)
				}
			}
		}
	}
	return nil
}

// Checkpoint externalizes the run's state. Everything is deep-copied,
// so the State stays valid however the caller's chips and results are
// used afterwards.
func (r *runState) Checkpoint() *State {
	cpT0 := r.rec.Now()
	defer func() { r.rec.Span(obs.StageCheckpoint, -1, -1, "build", cpT0) }()
	g := r.chip.G
	nl := r.chip.NL
	st := &State{
		Method:    r.m.Name(),
		NX:        g.NX,
		NY:        g.NY,
		Layers:    len(g.Layers),
		LayerDirs: g.LayerDirs(),
		Cap:       append([]float32(nil), g.Cap...),
		Mult:      append([]float32(nil), r.pricer.Mult...),
	}
	st.Nets = make([]NetState, len(nl.Nets))
	for ni := range r.nets {
		n, ns := &r.nets[ni], &st.Nets[ni]
		ns.Sig = netSig(nl, nl.Nets[ni])
		ns.Weights = append([]float64(nil), n.weights...)
		ns.Budgets = append([]float64(nil), n.budgets...)
		ns.Delays = append([]float64(nil), n.delays...)
		if n.tree != nil {
			ns.Tree = &nets.RTree{Steps: append([]nets.Step(nil), n.tree.Steps...)}
		}
	}
	return st
}

// netSig extracts the terminal signature of a netlist net.
func netSig(nl *sta.Netlist, n sta.Net) nets.PinSig {
	sig := nets.PinSig{Driver: nl.Cells[n.Driver].Pos}
	sig.Sinks = make([]geom.Pt, len(n.Sinks))
	for k, s := range n.Sinks {
		sig.Sinks[k] = nl.Cells[s].Pos
	}
	return sig
}

// RouteCheckpoint is RouteCtx returning, alongside the result, the
// run's externalized state for later warm starts.
func RouteCheckpoint(ctx context.Context, chip *chipgen.Chip, m Method, opt Options) (*Result, *State, error) {
	return route(ctx, nil, chip, m, opt, true)
}

// RouteFrom warm-starts routing on chip from a previous run's state:
// the checkpointed trees, multipliers and timing prices are restored,
// the chip is diffed against the checkpoint, and the first wave's work
// list is seeded with exactly the nets the diff invalidated — moved,
// added or re-pinned nets, nets without a cached tree, and nets whose
// region overlaps a capacity edit. Later waves run the ordinary
// dirty-net scheduler, so post-resume price and weight drift reprices
// reuse decisions just like mid-run waves do. A wave that re-solves
// nothing skips the Lagrangean updates (the restored equilibrium is
// already converged), which makes an unperturbed warm start a no-op
// reproducing the checkpointed result exactly.
//
// The warm run always uses the skip policy regardless of
// opt.Incremental; like Route it rejects opt.Waves < 1 and a negative,
// NaN or +Inf opt.IncrementalTol. It also rejects a state that
// st.CompatibleWith refuses: another grid, or a number outside the
// range a run produces (a multiplier below 1, a negative weight, delay
// or budget, NaN, an infinite weight or delay).
// With opt.RepairTol ≥ 0, seeded nets whose pin signature matched at
// restore time — invalidated purely by the capacity/price diff — take
// the topology-repair rung first and only escalate to a full oracle
// solve when the repair degrades past tolerance; pin-changed and added
// nets have no usable cached tree and always solve in full.
// The returned State is the new run's checkpoint, so ECO chains can
// warm-start from warm starts.
func RouteFrom(ctx context.Context, st *State, chip *chipgen.Chip, m Method, opt Options) (*Result, *State, error) {
	if st == nil {
		return nil, nil, fmt.Errorf("router: RouteFrom needs a checkpoint state (use Route for cold starts)")
	}
	return route(ctx, st, chip, m, opt, true)
}

// newRunFrom builds a warm-started runState: a cold skeleton (which
// also computes the cold-init timing for nets the diff rejects) with
// the checkpoint's state restored on top and the first wave's dirty
// seed derived from the instance diff.
func newRunFrom(ctx context.Context, st *State, chip *chipgen.Chip, m Method, opt Options) (*runState, error) {
	if err := st.CompatibleWith(chip.G); err != nil {
		return nil, err
	}
	// Warm starts always run the skip policy — the no-skip work list
	// would re-solve every restored net in wave 0.
	opt.Incremental = true
	r, err := newRun(ctx, chip, m, opt)
	if err != nil {
		return nil, err
	}
	r.warm = true

	// Restore chip-wide price state: the multipliers drive wave 0's
	// costs and rebaseline drift accounting — the tracker reference and
	// every restored tree's snapshot cost start from the restored
	// equilibrium, not from the producing run's mid-run residue.
	copy(r.pricer.Mult, st.Mult)
	r.tracker.SetRef(st.Mult)
	costs := r.pricer.Costs()

	// A method change invalidates every cached tree: another driver
	// produced them, and this run's driver alone decides which inputs
	// (budgets among them) a cached tree is judged against. The restored
	// prices are still reused — they are driver-independent Lagrangean
	// state.
	methodMatch := st.Method == m.Name()

	nl := chip.NL
	for ni, n := range nl.Nets {
		if !methodMatch || ni >= len(st.Nets) {
			continue
		}
		ns := &st.Nets[ni]
		if ns.Tree == nil || !ns.Sig.Equal(netSig(nl, n)) {
			continue // added or re-pinned net: keep the cold init, solve in wave 0
		}
		// A hand-built State with per-sink vectors shorter than the sink
		// count would panic the drift checks; treat such entries as
		// changed nets instead of restoring them (the codec rejects
		// them outright on the wire path).
		if k := len(n.Sinks); len(ns.Weights) != k || len(ns.Budgets) != k || len(ns.Delays) != k {
			continue
		}
		// The restored tree counts as a full solve under the checkpoint's
		// (rebaselined) timing prices.
		copy(r.nets[ni].weights, ns.Weights)
		copy(r.nets[ni].budgets, ns.Budgets)
		cost := 0.0
		for _, step := range ns.Tree.Steps {
			cost += costs.ArcCost(step.Arc)
		}
		r.adopt(ni, ns.Tree, ns.Delays, cost, true)
	}

	// Capacity edits: translate changed segments into plane regions and
	// dirty every net whose candidate region overlaps one.
	seed := make([]bool, len(nl.Nets))
	if rects := cong.DiffRects(chip.G, chip.G.Cap, st.Cap); len(rects) > 0 {
		ix := nets.BuildWindowIndex(r.regions())
		for _, rect := range rects {
			ix.Query(rect, func(ni int32) { seed[ni] = true })
		}
	}
	r.seed = seed
	return r, nil
}

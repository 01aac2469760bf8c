// Package router implements timing-constrained global routing with
// Lagrangean relaxation in the architecture of ref [13], the framework
// the paper evaluates inside (§IV): congestion constraints are priced by
// multiplicative-weight segment multipliers, timing constraints by
// per-sink delay weights derived from slacks, and in every
// rip-up-and-reroute wave a Steiner tree oracle solves the resulting
// cost-distance subproblem (eq. (1)) per net. The oracle is pluggable:
// the paper's four contenders — L1, shallow-light, Prim-Dijkstra (each
// topology-first, then embedded optimally) and the new cost-distance
// algorithm — are all provided.
//
// The package is split by concern: this file holds the method/driver
// dispatch and the public entry points; waves.go the rip-up-and-reroute
// wave loop over a runState; metrics.go the metric row and its final
// evaluation; state.go the externalized State with checkpoint/restore
// and the warm-start entry points; incremental.go the dirty-net
// scheduler.
package router

import (
	"context"
	"fmt"
	"math"
	"slices"

	"costdist/internal/chipgen"
	"costdist/internal/core"
	"costdist/internal/nets"
	"costdist/internal/obs"
	"costdist/internal/oracle"
)

// Method selects the oracle driver of a routing run. The fixed methods
// name one row of the oracle table (paper §IV-A); Portfolio is a
// driver layered over the whole table.
type Method int

const (
	L1 Method = iota // shortest L1 Steiner topology, embedded optimally
	SL               // shallow-light topology, embedded optimally
	PD               // Prim-Dijkstra topology, embedded optimally
	CD               // the paper's cost-distance algorithm
	// Portfolio races every oracle but the exact tier on every net and
	// keeps the best-priced tree (name-ordered tie-break).
	Portfolio
	// Exact routes every net with the exact tier: the goal-oriented
	// label-setting solver seeded by the CD heuristic, falling back to
	// the CD tree for nets beyond its deterministic budget.
	Exact
)

// methodInfo maps each Method to its canonical oracle/driver name and
// its display label (the paper's table spelling for the fixed four).
var methodInfo = []struct{ name, display string }{
	L1:        {"rsmt", "L1"},
	SL:        {"sl", "SL"},
	PD:        {"pd", "PD"},
	CD:        {"cd", "CD"},
	Portfolio: {"portfolio", "portfolio"},
	Exact:     {"exact", "exact"},
}

// Name returns the canonical oracle (or driver-mode) name, "" for an
// out-of-range value.
func (m Method) Name() string {
	if m < 0 || int(m) >= len(methodInfo) {
		return ""
	}
	return methodInfo[m].name
}

func (m Method) String() string {
	if m < 0 || int(m) >= len(methodInfo) {
		return fmt.Sprintf("Method(%d)", int(m))
	}
	return methodInfo[m].display
}

// MethodByName resolves a user-supplied oracle or driver name — any
// oracle name, alias ("l1") or driver mode, case-insensitive — to its
// Method.
func MethodByName(name string) (Method, bool) {
	c := oracle.Canonical(name)
	for i := range methodInfo {
		if methodInfo[i].name == c {
			return Method(i), true
		}
	}
	return 0, false
}

// oracleNames names the oracle table's rows by index: the keys of
// SolvesByOracle and the labels of solve spans.
var oracleNames = oracle.Names()

// OracleNames returns the oracle table's canonical names, sorted.
func OracleNames() []string { return oracle.Names() }

// MethodNames returns every accepted method name: the canonical oracle
// names followed by the driver mode.
func MethodNames() []string {
	return append(OracleNames(), "portfolio")
}

// Options configures a routing run. No field configures an oracle: CD
// runs core.DefaultOptions, the baselines their fixed parameters, and
// the delay weights follow updateTiming's fixed schedule.
type Options struct {
	// Waves is the number of rip-up-and-reroute iterations, ≥ 1 (every
	// entry point rejects fewer).
	Waves int
	// Threads caps the routing worker count (0 = GOMAXPROCS).
	Threads int
	// Seed becomes every routed and captured instance's
	// nets.Instance.Seed. A route draws no random number from it: the
	// only reader is Algorithm 1's random representative draw, which
	// runs only with §III-D off, and the CD oracle always runs
	// core.DefaultOptions (TestRouteIgnoresSeed pins this). Solving a
	// captured instance with §III-D off, as the ablation does, reads it.
	Seed uint64

	// PriceAlpha and PriceTarget parameterize congestion pricing
	// (cong.Pricer): a segment's multiplier grows by
	// exp(PriceAlpha·(usage/capacity − PriceTarget)) per wave. Both must
	// be finite and PriceAlpha ≥ 0; every entry point refuses other
	// values, naming the field.
	PriceAlpha  float64
	PriceTarget float64

	// CaptureWave, when ≥ 0, snapshots every routed net of that wave as
	// a standalone cost-distance instance (for Tables I and II). With
	// Incremental on only the nets actually re-solved in that wave are
	// captured.
	CaptureWave int

	// Incremental is the wave loop's reuse policy. On, the dirty-net
	// scheduler picks each wave's work list: after wave 0 only nets
	// invalidated by congestion or timing price changes are ripped up
	// and re-solved; clean nets keep their cached tree. Off (the
	// default), the work list is every net in every wave and price
	// deltas are not tracked. Warm-started runs (RouteFrom) always skip
	// regardless of this flag.
	Incremental bool
	// IncrementalTol is the relative tolerance of the invalidation rule:
	// a congestion multiplier or sink timing value counts as changed
	// when it moved by more than IncrementalTol relative to the snapshot
	// the net was last solved under. 0 invalidates on any change; it
	// must be finite and ≥ 0 (Route and RouteFrom reject a negative
	// value — to re-solve everything set Incremental to false — and NaN
	// or +Inf, under which no net would ever count as changed).
	IncrementalTol float64
	// RepairTol enables the topology-repair rung of the dirty-net
	// scheduler (it has no effect with Incremental off): every dirty net
	// with a cached tree — dirtied by congestion-price, weight or budget
	// drift, or by a warm start's capacity diff — is first re-embedded
	// on its cached topology under the current prices, weights and
	// budgets (internal/reembed) and escalates to a full oracle solve
	// only when the repaired cost still exceeds (1+RepairTol) times the
	// net's last full-solve cost, or a delay budget is violated.
	// Negative (the default) disables the rung entirely: every dirty net
	// escalates, reproducing the two-rung scheduler bit-for-bit.
	RepairTol float64

	// Recorder, when non-nil, captures structured telemetry: per-stage
	// spans (dirty scan, repair, solve, replay, reprice, checkpoint)
	// and per-wave convergence snapshots, and populates the
	// Metrics.*PerWave telemetry series. The nil default is
	// zero-overhead, and recording never perturbs the computation —
	// routed trees and all non-telemetry metrics are bit-identical with
	// and without a recorder (locked by TestRecorderDoesNotPerturbRoute).
	Recorder *obs.Recorder
}

// DefaultOptions returns a configuration mirroring the paper's setup.
func DefaultOptions() Options {
	return Options{
		Waves:       4,
		Seed:        1,
		PriceAlpha:  1.2,
		PriceTarget: 0.85,
		CaptureWave: -1,

		IncrementalTol: 0.05,
		RepairTol:      -1,
	}
}

// portfolioPool is the oracles the Portfolio driver races on every net:
// every table row except the exact tier, whose search on every net of a
// netlist would dominate the run's cost. Table order is name order, so
// the pool's order is the deterministic tie-break. poolUsesBudgets says
// whether any member consumes budgets.
var (
	portfolioPool = func() (pool []int) {
		for oi, name := range oracleNames {
			if name != "exact" {
				pool = append(pool, oi)
			}
		}
		return pool
	}()
	poolUsesBudgets = slices.ContainsFunc(portfolioPool, oracle.UsesBudgets)
)

// driver is a Method resolved against the oracle table once per run;
// every net solve dispatches through it: a fixed single oracle or the
// portfolio racer. The portfolio's choice is a pure function of the
// instance, so results never depend on worker count or scheduling.
// Oracles are table indices throughout.
type driver struct {
	mode Method
	// fixed is the oracle of a fixed single-oracle run (-1 for
	// Portfolio).
	fixed int
	// usesBudgets says whether the driver's solves consume
	// Instance.Budgets: the gate of the dirty-net scheduler's
	// budget-drift check and of the repair rung's budget rule.
	usesBudgets bool
}

// newDriver resolves the dispatch for one run; it fails only for an
// unknown Method. It does not allocate, keeping SolveNet on the batch
// hot path allocation-free at the dispatch layer.
func newDriver(m Method) (driver, error) {
	if m == Portfolio {
		return driver{mode: m, fixed: -1, usesBudgets: poolUsesBudgets}, nil
	}
	fixed := oracle.Index(m.Name())
	if fixed < 0 {
		return driver{}, fmt.Errorf("router: unknown method %v (available: %v)", m, MethodNames())
	}
	return driver{mode: m, fixed: fixed, usesBudgets: oracle.UsesBudgets(fixed)}, nil
}

// solvesByOracle is the run's SolvesByOracle after solved full solves:
// every one of them invokes the fixed oracle, or each Portfolio pool
// member once. A run that solved nothing gets the empty map.
func (d *driver) solvesByOracle(solved int64) map[string]int64 {
	out := map[string]int64{}
	if solved == 0 {
		return out
	}
	pool := portfolioPool
	if d.mode != Portfolio {
		pool = []int{d.fixed}
	}
	for _, oi := range pool {
		out[oracleNames[oi]] = solved
	}
	return out
}

// solve runs the driver on one instance and returns the tree, the
// table index of the oracle that produced it (solve spans are labelled
// with it), and — in Portfolio mode, which prices every candidate
// anyway — the winning tree's evaluation (nil otherwise; callers
// evaluate themselves).
func (d *driver) solve(in *nets.Instance, env *oracle.Env) (*nets.RTree, int, *nets.Eval, error) {
	switch d.mode {
	case Portfolio:
		var best *nets.RTree
		var bestEv *nets.Eval
		bestIdx, bestTotal := -1, math.Inf(1)
		for _, oi := range portfolioPool {
			tr, err := oracle.Solve(oi, in, env)
			if err != nil {
				return nil, oi, nil, fmt.Errorf("portfolio %s: %w", oracleNames[oi], err)
			}
			ev, err := nets.Evaluate(in, tr)
			if err != nil {
				return nil, oi, nil, fmt.Errorf("portfolio %s eval: %w", oracleNames[oi], err)
			}
			// Strict < keeps the first (name-ordered) oracle on ties.
			if ev.Total < bestTotal {
				best, bestEv, bestIdx, bestTotal = tr, ev, oi, ev.Total
			}
		}
		if best == nil {
			return nil, -1, nil, fmt.Errorf("router: no portfolio oracle priced the net finitely")
		}
		return best, bestIdx, bestEv, nil
	default:
		tr, err := oracle.Solve(d.fixed, in, env)
		return tr, d.fixed, nil, err
	}
}

// Route runs the full flow on the chip with the given oracle driver.
func Route(chip *chipgen.Chip, m Method, opt Options) (*Result, error) {
	return RouteCtx(context.Background(), chip, m, opt)
}

// RouteCtx is Route with cancellation: the context is checked between
// waves and between per-net oracle solves, so a cancelled run returns
// ctx.Err() within roughly one net-solve latency. On the non-cancelled
// path results are bit-identical to Route.
func RouteCtx(ctx context.Context, chip *chipgen.Chip, m Method, opt Options) (*Result, error) {
	res, _, err := route(ctx, nil, chip, m, opt, false)
	return res, err
}

// route runs one routing run end to end: a cold start, or with st a warm
// start from that checkpoint, then the waves and the final metric row.
// With checkpoint set it also externalizes the run's final state.
func route(ctx context.Context, st *State, chip *chipgen.Chip, m Method, opt Options, checkpoint bool) (*Result, *State, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var r *runState
	var err error
	if st == nil {
		r, err = newRun(ctx, chip, m, opt)
	} else {
		r, err = newRunFrom(ctx, st, chip, m, opt)
	}
	if err != nil {
		return nil, nil, err
	}
	if err := r.runWaves(); err != nil {
		return nil, nil, err
	}
	res := r.finish()
	if !checkpoint {
		return res, nil, nil
	}
	return res, r.Checkpoint(), nil
}

// SolveNet runs one oracle driver standalone on a self-contained
// instance (the Tables I/II harness and the CLI use this for
// apples-to-apples comparisons on captured instances). The oracle-side
// code lives in the internal/oracle table; this only resolves the
// driver. scr, when non-nil, is the CD solver's arena (a Scratch must
// not serve two solves at once).
func SolveNet(in *nets.Instance, m Method, scr *core.Scratch) (*nets.RTree, error) {
	drv, err := newDriver(m)
	if err != nil {
		return nil, err
	}
	env := oracle.Env{Scratch: scr}
	tr, _, _, err := drv.solve(in, &env)
	return tr, err
}

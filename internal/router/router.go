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
	"sort"
	"sync"

	"costdist/internal/chipgen"
	"costdist/internal/core"
	"costdist/internal/nets"
	"costdist/internal/obs"
	"costdist/internal/oracle"
	"costdist/internal/reembed"
)

// Method selects the oracle driver of a routing run. The four fixed
// methods are thin aliases over a registry lookup (paper §IV-A); Auto
// and Portfolio are drivers layered over the whole registry.
type Method int

const (
	L1 Method = iota // shortest L1 Steiner topology, embedded optimally
	SL               // shallow-light topology, embedded optimally
	PD               // Prim-Dijkstra topology, embedded optimally
	CD               // the paper's cost-distance algorithm
	// Auto picks an oracle per net from its timing criticality
	// (Options.Selection thresholds).
	Auto
	// Portfolio races several oracles on every net and keeps the
	// best-priced tree (name-ordered tie-break).
	Portfolio
	// Exact routes every net with the exact tier: the goal-oriented
	// label-setting solver seeded by the CD heuristic, falling back to
	// the CD tree for nets beyond its deterministic budget.
	Exact
)

// methodInfo maps each Method to its canonical registry/driver name and
// its display label (the paper's table spelling for the fixed four).
var methodInfo = []struct{ name, display string }{
	L1:        {"rsmt", "L1"},
	SL:        {"sl", "SL"},
	PD:        {"pd", "PD"},
	CD:        {"cd", "CD"},
	Auto:      {"auto", "auto"},
	Portfolio: {"portfolio", "portfolio"},
	Exact:     {"exact", "exact"},
}

// Name returns the canonical registry (or driver-mode) name, "" for an
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
// registry name, alias ("l1") or driver mode, case-insensitive — to its
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

// defaultRegistry is the immutable registry shared by the router's
// drivers and name lookups. Callers who want to extend a registry build
// their own via oracle.Default()/oracle.NewRegistry.
var defaultRegistry = oracle.Default()

// OracleNames returns the registry's canonical oracle names, sorted.
func OracleNames() []string { return defaultRegistry.Names() }

// MethodNames returns every accepted method name: the registry's
// canonical oracle names followed by the driver modes.
func MethodNames() []string {
	return append(OracleNames(), "auto", "portfolio")
}

// Options configures a routing run.
type Options struct {
	// Waves is the number of rip-up-and-reroute iterations.
	Waves int
	// Threads caps the routing worker count (0 = GOMAXPROCS).
	Threads int
	// Seed drives all randomized choices.
	Seed uint64

	// DBif and Eta parameterize the bifurcation penalty model; DBif < 0
	// means "use the technology-derived value" (chip.DBif), 0 disables.
	DBif float64
	Eta  float64

	// PriceAlpha and PriceTarget parameterize congestion pricing.
	PriceAlpha  float64
	PriceTarget float64

	// WeightBase, WeightTau and WeightMax parameterize the slack-driven
	// delay weight update w ← clamp(w·exp(−slack/τ), base, max).
	WeightBase float64
	WeightTau  float64
	WeightMax  float64

	// Margin is the routing window margin in gcells.
	Margin int32

	// CoreOpt configures the CD oracle; PDAlpha and SLEps the baselines.
	CoreOpt core.Options
	PDAlpha float64
	SLEps   float64

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
	// must be ≥ 0 (Route and RouteFrom reject a negative value — to
	// re-solve everything set Incremental to false).
	IncrementalTol float64
	// RepairTol enables the topology-repair rung of the dirty-net
	// scheduler (it has no effect with Incremental off): a net
	// invalidated only by congestion-price drift (pins, weights and
	// budgets unchanged) is first re-embedded on its cached topology
	// (internal/reembed) and escalates to a full oracle solve only when
	// the repaired cost still exceeds (1+RepairTol) times the net's last
	// full-solve cost, or a delay budget is violated. Negative (the
	// default) disables the rung entirely: every dirty net escalates,
	// reproducing the two-rung scheduler bit-for-bit.
	RepairTol float64

	// Selection configures the Auto selector's criticality bands and
	// the Portfolio pool; fixed single-oracle runs never consult (or
	// validate) it. A zero CriticalWeight derives the threshold from
	// WeightBase (see oracle.Selection).
	Selection SelectionOptions

	// Recorder, when non-nil, captures structured telemetry: per-stage
	// spans (dirty scan, repair, solve, replay, reprice, checkpoint)
	// and per-wave convergence snapshots, and populates the
	// Metrics.*PerWave telemetry series. The nil default is
	// zero-overhead, and recording never perturbs the computation —
	// routed trees and all non-telemetry metrics are bit-identical with
	// and without a recorder (locked by TestRecorderDoesNotPerturbRoute).
	Recorder *obs.Recorder
}

// SelectionOptions configures per-net adaptive oracle selection and
// portfolio mode.
type SelectionOptions = oracle.Selection

// DefaultOptions returns a configuration mirroring the paper's setup.
func DefaultOptions() Options {
	return Options{
		Waves:       4,
		Seed:        1,
		DBif:        -1,
		Eta:         0.25,
		PriceAlpha:  1.2,
		PriceTarget: 0.85,
		WeightBase:  5e-4,
		WeightTau:   800,
		WeightMax:   0.05,
		Margin:      6,
		CoreOpt:     core.DefaultOptions(),
		PDAlpha:     0.3,
		SLEps:       0.25,
		CaptureWave: -1,

		IncrementalTol: 0.05,
		RepairTol:      -1,

		// CriticalWeight stays 0: the driver derives it from the actual
		// WeightBase (2 × floor), so retuning the floor keeps the Auto
		// critical band coupled to it.
		Selection: SelectionOptions{TrivialSinks: 1, TightBudgetRatio: 1.25},
	}
}

// scratchPool hands each routing worker a private core.Scratch arena so
// every rip-up-and-reroute wave re-solves its nets without re-allocating
// solver state. Pools persist across waves (and, via RouteAll, across
// chips of a suite).
type scratchPool struct {
	scr []*core.Scratch
	// re holds the matching per-worker repair workspaces; allocated
	// alongside scr so a pool serves repair-enabled and plain runs alike.
	re []*reembed.Scratch
}

// grow ensures the pool holds at least n arenas.
func (p *scratchPool) grow(n int) {
	for len(p.scr) < n {
		p.scr = append(p.scr, core.NewScratch())
		p.re = append(p.re, reembed.NewScratch())
	}
}

// driver resolves a Method against the oracle registry once per run
// and dispatches every net solve through it: a fixed single oracle, the
// adaptive per-net selector, or the portfolio racer. All selection
// logic is a pure function of the instance, so results never depend on
// worker count or scheduling.
type driver struct {
	reg  *oracle.Registry
	mode Method
	// names is the registry's sorted name list; it is the index space
	// of every per-oracle counter, and index() is its inverse.
	names   []string
	oracles []oracle.Oracle
	// fixed is the oracle index of a fixed single-oracle run (-1 for
	// Auto/Portfolio).
	fixed int
	// sel is the resolved selection (bands validated, thresholds
	// derived); port the name-ordered portfolio pool.
	sel  oracle.Selection
	port []int
}

// baseDriver assembles the registry-backed skeleton shared by every
// driver mode.
func baseDriver(m Method) *driver {
	d := &driver{reg: defaultRegistry, mode: m, names: defaultRegistry.Names(), fixed: -1}
	for _, name := range d.names {
		o, _ := defaultRegistry.Get(name)
		d.oracles = append(d.oracles, o)
	}
	return d
}

// fixedDrivers caches the five fixed single-oracle drivers. They hold
// no per-run state (Selection is only consulted by Auto/Portfolio), so
// one instance serves every run and goroutine — SolveNet on the batch
// hot path stays allocation-free at the dispatch layer.
var fixedDrivers struct {
	once sync.Once
	d    [Exact + 1]*driver
}

// isFixed reports whether m dispatches to one single oracle.
func isFixed(m Method) bool {
	return (m >= L1 && m <= CD) || m == Exact
}

// newDriver resolves the dispatch for one run.
func newDriver(m Method, opt Options) (*driver, error) {
	if isFixed(m) {
		fixedDrivers.once.Do(func() {
			for fm := L1; fm <= Exact; fm++ {
				if !isFixed(fm) {
					continue
				}
				d := baseDriver(fm)
				d.fixed = d.index(fm.Name())
				fixedDrivers.d[fm] = d
			}
		})
		return fixedDrivers.d[m], nil
	}
	if m != Auto && m != Portfolio {
		return nil, fmt.Errorf("router: unknown method %v (available: %v)", m, MethodNames())
	}
	d := baseDriver(m)
	sel := opt.Selection
	if sel.CriticalWeight == 0 {
		// A net is critical once pricing has at least doubled one of
		// its sink weights above the uncritical floor.
		sel.CriticalWeight = 2 * opt.WeightBase
	}
	sel, err := sel.Validate(d.reg)
	if err != nil {
		return nil, err
	}
	d.sel = sel
	if m == Portfolio {
		pool := sel.Portfolio
		if len(pool) == 0 {
			// The default pool is every registered oracle except the
			// exact tier: racing an exact search on every net would
			// dominate the run's cost (see oracle.Selection.Portfolio).
			for _, name := range d.names {
				if name != "exact" {
					pool = append(pool, name)
				}
			}
		}
		pool = append([]string(nil), pool...)
		sort.Strings(pool) // fixed name order: deterministic tie-break
		seen := make(map[int]bool, len(pool))
		for _, name := range pool {
			oi := d.index(name)
			if oi < 0 || seen[oi] {
				continue
			}
			seen[oi] = true
			d.port = append(d.port, oi)
		}
	}
	return d, nil
}

// index returns the counter index of a canonical oracle name, -1 if
// absent.
func (d *driver) index(name string) int {
	for i, n := range d.names {
		if n == name {
			return i
		}
	}
	return -1
}

// pickIdx is the Auto band selection on raw per-net timing inputs —
// shared with the dirty-net scheduler's invalidation check so both
// always agree on the selected oracle.
func (d *driver) pickIdx(ws, budgets, fastest []float64) int {
	return d.index(d.sel.Pick(ws, budgets, fastest))
}

// usesBudgets reports whether a re-solve of a net whose cached tree
// came from oracle index last could consume Instance.Budgets — the
// dirty-net scheduler's budget-drift invalidation gate.
func (d *driver) usesBudgets(last int) bool {
	if d.mode == Portfolio {
		for _, oi := range d.port {
			if d.oracles[oi].Hint().UsesBudgets {
				return true
			}
		}
		return false
	}
	return last >= 0 && d.oracles[last].Hint().UsesBudgets
}

// solve runs the driver on one instance and returns the tree, the
// index (into names) of the oracle that produced it, and — in
// Portfolio mode, which prices every candidate anyway — the winning
// tree's evaluation (nil otherwise; callers evaluate themselves).
// counts, indexed like names, is charged one per oracle invocation;
// nil skips the accounting.
func (d *driver) solve(in *nets.Instance, env *oracle.Env, counts []int64) (*nets.RTree, int, *nets.Eval, error) {
	charge := func(oi int) {
		if counts != nil {
			counts[oi]++
		}
	}
	switch d.mode {
	case Auto:
		oi := d.index(d.sel.PickInstance(in))
		charge(oi)
		tr, err := d.oracles[oi].Solve(in, env)
		return tr, oi, nil, err
	case Portfolio:
		var best *nets.RTree
		var bestEv *nets.Eval
		bestIdx, bestTotal := -1, math.Inf(1)
		for _, oi := range d.port {
			tr, err := d.oracles[oi].Solve(in, env)
			if err != nil {
				return nil, oi, nil, fmt.Errorf("portfolio %s: %w", d.names[oi], err)
			}
			charge(oi)
			ev, err := nets.Evaluate(in, tr)
			if err != nil {
				return nil, oi, nil, fmt.Errorf("portfolio %s eval: %w", d.names[oi], err)
			}
			// Strict < keeps the first (name-ordered) oracle on ties.
			if ev.Total < bestTotal {
				best, bestEv, bestIdx, bestTotal = tr, ev, oi, ev.Total
			}
		}
		if best == nil {
			return nil, -1, nil, fmt.Errorf("router: empty portfolio pool")
		}
		return best, bestIdx, bestEv, nil
	default:
		charge(d.fixed)
		tr, err := d.oracles[d.fixed].Solve(in, env)
		return tr, d.fixed, nil, err
	}
}

// Route runs the full flow on the chip with the given oracle driver.
func Route(chip *chipgen.Chip, m Method, opt Options) (*Result, error) {
	return routeWith(context.Background(), chip, m, opt, &scratchPool{})
}

// RouteCtx is Route with cancellation: the context is checked between
// waves and between per-net oracle solves, so a cancelled run returns
// ctx.Err() within roughly one net-solve latency. On the non-cancelled
// path results are bit-identical to Route.
func RouteCtx(ctx context.Context, chip *chipgen.Chip, m Method, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return routeWith(ctx, chip, m, opt, &scratchPool{})
}

// routeWith runs one cold route on a caller-provided scratch pool.
func routeWith(ctx context.Context, chip *chipgen.Chip, m Method, opt Options, pool *scratchPool) (*Result, error) {
	r, err := newRun(ctx, chip, m, opt, pool)
	if err != nil {
		return nil, err
	}
	if err := r.runWaves(); err != nil {
		return nil, err
	}
	return r.finish(), nil
}

// SolveNet runs one oracle driver standalone on a self-contained
// instance (the Tables I/II harness and the CLI use this for
// apples-to-apples comparisons on captured instances). The oracle-side
// code lives in the internal/oracle adapters; this only resolves the
// driver and derives the environment from the instance.
func SolveNet(in *nets.Instance, m Method, opt Options) (*nets.RTree, error) {
	drv, err := newDriver(m, opt)
	if err != nil {
		return nil, err
	}
	lbif := 0.0
	if d := in.C.MinDelayPerGCell(); d > 0 {
		lbif = in.DBif / d
	}
	env := oracle.Env{Core: opt.CoreOpt, PDAlpha: opt.PDAlpha, SLEps: opt.SLEps, LBif: lbif}
	tr, _, _, err := drv.solve(in, &env, nil)
	return tr, err
}

// RouteAll routes every chip of a suite with one method, returning rows
// in suite order. It exists for the Tables IV/V harness. One worker
// scratch pool is shared across all chips, so solver state is recycled
// suite-wide, not just within one chip's waves.
func RouteAll(chips []*chipgen.Chip, m Method, opt Options) ([]Metrics, error) {
	return RouteAllCtx(context.Background(), chips, m, opt)
}

// RouteAllCtx is RouteAll with cancellation; the context propagates into
// every chip's waves, so a cancelled suite run stops within one
// net-solve latency and returns ctx.Err() unwrapped.
func RouteAllCtx(ctx context.Context, chips []*chipgen.Chip, m Method, opt Options) ([]Metrics, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]Metrics, len(chips))
	pool := &scratchPool{}
	for i, chip := range chips {
		r, err := routeWith(ctx, chip, m, opt, pool)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("%s/%s: %w", chip.Spec.Name, m, err)
		}
		out[i] = r.Metrics
	}
	return out, nil
}

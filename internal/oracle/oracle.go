// Package oracle makes the Steiner tree oracle a first-class, pluggable
// component of the routing flow. The paper's experiments (§IV-A, Tables
// I–V) compare four oracles — the cost-distance algorithm against
// RSMT-, shallow-light- and Prim-Dijkstra-topology baselines — and the
// router previously hard-coded that choice as an enum with duplicated
// switch dispatch. Here each oracle is an adapter behind one interface,
// collected in a deterministic registry, so drivers can pick an oracle
// per net (adaptive selection) or race several on the same net
// (portfolio mode) without the router knowing any concrete algorithm.
package oracle

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"costdist/internal/core"
	"costdist/internal/embed"
	"costdist/internal/exact"
	"costdist/internal/geom"
	"costdist/internal/nets"
	"costdist/internal/obs"
	"costdist/internal/pd"
	"costdist/internal/rsmt"
	"costdist/internal/sl"
)

// Env carries the per-run oracle configuration that is not part of the
// instance itself: the CD solver options (including the per-worker
// scratch arena), the baselines' shape parameters, and the bifurcation
// penalty converted to length units for the plane-topology oracles.
// Workers build one Env each; an Env whose Core.Scratch is shared
// between concurrent solves races.
type Env struct {
	// Core configures the cost-distance oracle (§III enhancements,
	// scratch arena).
	Core core.Options
	// PDAlpha is the Prim-Dijkstra trade-off parameter; SLEps the
	// shallow-light stretch bound.
	PDAlpha float64
	SLEps   float64
	// LBif is the bifurcation penalty dbif expressed in gcell-length
	// units (dbif divided by the fastest delay per gcell), consumed by
	// the plane-topology oracles' merge penalties.
	LBif float64
	// Exact bounds the exact tier's goal-oriented search; the zero value
	// takes exact.OracleLimits(). The limits are deterministic (sinks,
	// window vertices, settled labels — never wall-clock), so the exact
	// oracle's fallback decision is identical on every run.
	Exact exact.GoalLimits
	// Ctx, when non-nil, is checked by long-running oracles (the exact
	// tier) for prompt mid-solve cancellation. Nil means "no deadline".
	Ctx context.Context
	// Rec, when non-nil, is the worker's telemetry span sink. Oracles
	// with internal phases worth attributing (the exact tier's search
	// vs its heuristic seed) record detail spans on it; recording never
	// influences the solve.
	Rec *obs.Worker
}

// Hint describes an oracle's cost and capabilities to drivers and to
// the dirty-net scheduler's invalidation rules.
type Hint struct {
	// Cost ranks the oracle's relative expense (1 = cheapest). Drivers
	// use it to prefer cheap oracles for uncritical nets; it is a rank,
	// not a runtime model.
	Cost int
	// UsesBudgets reports whether the oracle consumes Instance.Budgets.
	// The dirty-net scheduler only invalidates a cached tree on budget
	// drift when the oracle that produced it (or may replace it) is
	// budget-sensitive.
	UsesBudgets bool
	// TimingAware reports whether the oracle optimizes the weighted
	// delay term of objective (1) rather than only tree length.
	TimingAware bool
}

// Oracle is one Steiner tree algorithm: given a cost-distance instance
// it returns an embedded tree in the routing graph. Implementations
// must be stateless and safe for concurrent use; all mutable solver
// state lives in the Env (scratch arena) or on the stack.
type Oracle interface {
	// Name is the registry key, lowercase and stable ("cd", "rsmt",
	// "sl", "pd", "exact").
	Name() string
	// Hint describes cost and capabilities.
	Hint() Hint
	// Solve runs the oracle on the instance under the environment.
	Solve(in *nets.Instance, env *Env) (*nets.RTree, error)
}

// ---- Adapters ----------------------------------------------------------

// cdOracle wraps the paper's cost-distance algorithm (core + §III).
type cdOracle struct{}

func (cdOracle) Name() string { return "cd" }
func (cdOracle) Hint() Hint   { return Hint{Cost: 4, UsesBudgets: false, TimingAware: true} }
func (cdOracle) Solve(in *nets.Instance, env *Env) (*nets.RTree, error) {
	return core.Solve(in, env.Core)
}

// planeWeights extracts the per-sink delay weights for the
// topology-first baselines.
func planeWeights(in *nets.Instance) []float64 {
	ws := make([]float64, len(in.Sinks))
	for i, s := range in.Sinks {
		ws[i] = s.W
	}
	return ws
}

// embedTopo embeds a plane topology optimally into the routing graph —
// the second half of every topology-first baseline.
func embedTopo(in *nets.Instance, topo *nets.PlaneTree) (*nets.RTree, error) {
	r, err := embed.Embed(in, topo)
	if err != nil {
		return nil, err
	}
	return r.Tree, nil
}

// rsmtOracle wraps the shortest-L1 Steiner topology baseline ("L1" in
// the paper's tables), embedded optimally.
type rsmtOracle struct{}

func (rsmtOracle) Name() string { return "rsmt" }
func (rsmtOracle) Hint() Hint   { return Hint{Cost: 1, UsesBudgets: false, TimingAware: false} }
func (rsmtOracle) Solve(in *nets.Instance, env *Env) (*nets.RTree, error) {
	return embedTopo(in, rsmt.Build(in.TermPts()))
}

// slOracle wraps the shallow-light topology baseline, embedded
// optimally. It is the only oracle that consumes the per-sink delay
// budgets of the resource sharing flow (§IV-A).
type slOracle struct{}

func (slOracle) Name() string { return "sl" }
func (slOracle) Hint() Hint   { return Hint{Cost: 2, UsesBudgets: true, TimingAware: true} }
func (slOracle) Solve(in *nets.Instance, env *Env) (*nets.RTree, error) {
	// Convert ps budgets into (admissible) length bounds with the
	// fastest delay per gcell; keep at least the L1 radius so a direct
	// connection always satisfies its own bound.
	var bounds []float64
	if in.Budgets != nil {
		if d := in.C.MinDelayPerGCell(); d > 0 {
			bounds = make([]float64, len(in.Sinks))
			rootPt := in.G.Pt(in.Root)
			for k := range in.Sinks {
				l1 := float64(geom.L1(rootPt, in.G.Pt(in.Sinks[k].V)))
				b := in.Budgets[k] / d
				if b < l1 {
					b = l1
				}
				bounds[k] = b
			}
		}
	}
	topo := sl.Build(in.TermPts(), planeWeights(in),
		sl.Params{Eps: env.SLEps, Bound: bounds, LBif: env.LBif, Eta: in.Eta})
	return embedTopo(in, topo)
}

// pdOracle wraps the Prim-Dijkstra topology baseline, embedded
// optimally.
type pdOracle struct{}

func (pdOracle) Name() string { return "pd" }
func (pdOracle) Hint() Hint   { return Hint{Cost: 3, UsesBudgets: false, TimingAware: true} }
func (pdOracle) Solve(in *nets.Instance, env *Env) (*nets.RTree, error) {
	topo := pd.Build(in.TermPts(), planeWeights(in),
		pd.Params{Alpha: env.PDAlpha, LBif: env.LBif, Eta: in.Eta})
	return embedTopo(in, topo)
}

// exactOracle is the premium tier: the goal-oriented exact solver of
// internal/exact (Dijkstra-meets-Steiner label setting) seeded and
// guarded by the CD heuristic. It first runs CD, then — when the net
// fits the Env.Exact budget — tries to certify or beat that tree with
// an exact search whose incumbent is the CD objective. Any limit
// breach (too many sinks, window too large, label budget exhausted)
// falls back to the CD tree, so the oracle never fails where CD
// succeeds and never spends unbounded time. All gates are
// deterministic, keeping routed results independent of machine speed,
// run count and thread count.
type exactOracle struct{}

func (exactOracle) Name() string { return "exact" }
func (exactOracle) Hint() Hint   { return Hint{Cost: 5, UsesBudgets: false, TimingAware: true} }
func (exactOracle) Solve(in *nets.Instance, env *Env) (*nets.RTree, error) {
	cd, err := core.Solve(in, env.Core)
	if err != nil {
		return nil, err
	}
	lim := env.Exact
	if lim == (exact.GoalLimits{}) {
		lim = exact.OracleLimits()
	}
	ev, err := nets.Evaluate(in, cd)
	if err != nil {
		return nil, err
	}
	if lim.UpperBound == 0 {
		lim.UpperBound = ev.Total
	}
	// The detail span splits the exact tier's cost between the CD seed
	// (the enclosing solve span minus this) and the goal-oriented
	// search, with the outcome as the attribute.
	var searchT0 int64
	if env.Rec != nil {
		searchT0 = env.Rec.Now()
	}
	res, err := exact.SolveGoalLimits(env.Ctx, in, lim)
	if err != nil {
		if env.Ctx != nil && env.Ctx.Err() != nil {
			return nil, env.Ctx.Err() // cancellation is not a fallback case
		}
		if env.Rec != nil {
			env.Rec.DetailSpan(obs.StageSolve, -1, "exact-search:over-budget", searchT0)
		}
		return cd, nil // over budget: stay on the heuristic tier
	}
	if res.Total <= ev.Total {
		if env.Rec != nil {
			env.Rec.DetailSpan(obs.StageSolve, -1, "exact-search:adopted", searchT0)
		}
		return res.Tree, nil
	}
	// With dbif > 0 the exact reconstruction can carry a small
	// bifurcation gap above the DP value; keep whichever tree evaluates
	// better.
	if env.Rec != nil {
		env.Rec.DetailSpan(obs.StageSolve, -1, "exact-search:seed-kept", searchT0)
	}
	return cd, nil
}

// ---- Registry ----------------------------------------------------------

// aliases maps accepted alternative spellings to canonical registry
// names. "l1" is the paper's table label for the RSMT baseline.
var aliases = map[string]string{
	"l1": "rsmt",
}

// Canonical lowercases a user-supplied oracle name and resolves
// aliases; the result is the registry key.
func Canonical(name string) string {
	n := strings.ToLower(strings.TrimSpace(name))
	if c, ok := aliases[n]; ok {
		return c
	}
	return n
}

// Registry is a deterministic name → Oracle map: Names() is sorted, so
// every iteration order derived from a registry is stable across runs
// and thread counts.
type Registry struct {
	byName map[string]Oracle
	names  []string
}

// NewRegistry builds a registry from the given oracles.
func NewRegistry(oracles ...Oracle) (*Registry, error) {
	r := &Registry{byName: make(map[string]Oracle, len(oracles))}
	for _, o := range oracles {
		if err := r.Register(o); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Register adds an oracle under its canonical name. Duplicate names are
// an error — silent replacement would make lookups order-dependent.
func (r *Registry) Register(o Oracle) error {
	name := Canonical(o.Name())
	if name == "" {
		return fmt.Errorf("oracle: empty name")
	}
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("oracle: duplicate name %q", name)
	}
	r.byName[name] = o
	r.names = append(r.names, name)
	sort.Strings(r.names)
	return nil
}

// Get resolves a name (alias- and case-insensitive) to its oracle.
func (r *Registry) Get(name string) (Oracle, bool) {
	o, ok := r.byName[Canonical(name)]
	return o, ok
}

// Names returns the sorted canonical names.
func (r *Registry) Names() []string {
	return append([]string(nil), r.names...)
}

// Default returns a registry holding the paper's four oracles plus the
// exact tier. A fresh registry is returned each call so callers may
// extend it without aliasing each other.
func Default() *Registry {
	r, err := NewRegistry(cdOracle{}, rsmtOracle{}, slOracle{}, pdOracle{}, exactOracle{})
	if err != nil {
		panic(err) // static oracle set; unreachable
	}
	return r
}

// Package oracle is the closed set of Steiner tree oracles the routing
// flow dispatches to. The paper's experiments (§IV-A, Tables I–V)
// compare four oracles — the cost-distance algorithm against RSMT-,
// shallow-light- and Prim-Dijkstra-topology baselines — and this repo
// adds one exact tier. Each is one row of a fixed table sorted by name,
// and drivers address rows by index, so they can use one oracle for
// every net or race several on the same net (portfolio mode) without
// the router knowing any concrete algorithm.
package oracle

import (
	"context"
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

// Env carries what a solve needs beyond the instance itself: the CD
// solver's scratch arena, cancellation and telemetry. No oracle is
// configured through it: the CD solver always runs core.DefaultOptions
// (every §III enhancement on), and the baselines' shape parameters are
// the constants pdAlpha and slEps. Workers build one Env each; an Env
// whose Scratch is shared between concurrent solves races.
type Env struct {
	// Scratch, when non-nil, is the arena the CD solves (the CD oracle
	// and the exact tier's seed) run in.
	Scratch *core.Scratch
	// Ctx, when non-nil, is checked by long-running oracles (the exact
	// tier) for prompt mid-solve cancellation. Nil means "no deadline".
	Ctx context.Context
	// Rec is the worker's telemetry span sink; nil records nothing.
	// Oracles with internal phases worth attributing (the exact tier's
	// search vs its heuristic seed) record detail spans on it; recording
	// never influences the solve.
	Rec *obs.Worker
}

// row is one oracle: its canonical name, whether it consumes
// Instance.Budgets, and its solve function. Solve functions are
// stateless and safe for concurrent use; all mutable solver state lives
// in the Env (scratch arena) or on the stack.
type row struct {
	name        string
	usesBudgets bool
	solve       func(in *nets.Instance, env *Env) (*nets.RTree, error)
}

// pdAlpha is the Prim-Dijkstra trade-off parameter and slEps the
// shallow-light stretch bound: the one parameterization of each
// baseline the paper compares against (§IV-A).
const (
	pdAlpha = 0.3
	slEps   = 0.25
)

// table holds every oracle, sorted by name. A row's index is the index
// space of the router's per-oracle counters and the portfolio's
// tie-break order, so the order must not change.
var table = [...]row{
	{"cd", false, solveCD},
	{"exact", false, solveExact},
	{"pd", false, solvePD},
	{"rsmt", false, solveRSMT},
	{"sl", true, solveSL},
}

// Canonical lowercases a user-supplied oracle name and resolves the
// "l1" alias (the paper's table label for the RSMT baseline).
func Canonical(name string) string {
	n := strings.ToLower(strings.TrimSpace(name))
	if n == "l1" {
		return "rsmt"
	}
	return n
}

// Index resolves a name (alias- and case-insensitive) to its table
// index, -1 if no oracle has that name.
func Index(name string) int {
	c := Canonical(name)
	for i := range table {
		if table[i].name == c {
			return i
		}
	}
	return -1
}

// Names returns the canonical names in table (sorted) order.
func Names() []string {
	out := make([]string, len(table))
	for i := range table {
		out[i] = table[i].name
	}
	return out
}

// Solve runs oracle i on the instance under the environment.
func Solve(i int, in *nets.Instance, env *Env) (*nets.RTree, error) {
	return table[i].solve(in, env)
}

// UsesBudgets reports whether oracle i consumes Instance.Budgets. The
// dirty-net scheduler only invalidates a cached tree on budget drift
// when the oracle that produced it (or may replace it) is
// budget-sensitive.
func UsesBudgets(i int) bool { return table[i].usesBudgets }

// solveCD is the paper's cost-distance algorithm (core + §III).
func solveCD(in *nets.Instance, env *Env) (*nets.RTree, error) {
	opt := core.DefaultOptions()
	opt.Scratch = env.Scratch
	return core.Solve(in, opt)
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

// solveRSMT is the shortest-L1 Steiner topology baseline ("L1" in the
// paper's tables), embedded optimally.
func solveRSMT(in *nets.Instance, env *Env) (*nets.RTree, error) {
	return embedTopo(in, rsmt.Build(in.TermPts()))
}

// solveSL is the shallow-light topology baseline, embedded optimally.
// It is the only oracle that consumes the per-sink delay budgets of the
// resource sharing flow (§IV-A).
func solveSL(in *nets.Instance, env *Env) (*nets.RTree, error) {
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
		sl.Params{Eps: slEps, Bound: bounds, LBif: lengthBif(in), Eta: in.Eta})
	return embedTopo(in, topo)
}

// lengthBif is the instance's bifurcation penalty in gcell-length units
// — dbif over the fastest delay per gcell, 0 without one — for the
// plane-topology oracles' merge penalties.
func lengthBif(in *nets.Instance) float64 {
	if d := in.C.MinDelayPerGCell(); d > 0 {
		return in.DBif / d
	}
	return 0
}

// solvePD is the Prim-Dijkstra topology baseline, embedded optimally.
func solvePD(in *nets.Instance, env *Env) (*nets.RTree, error) {
	topo := pd.Build(in.TermPts(), planeWeights(in),
		pd.Params{Alpha: pdAlpha, LBif: lengthBif(in), Eta: in.Eta})
	return embedTopo(in, topo)
}

// solveExact is the premium tier: the goal-oriented exact solver of
// internal/exact (Dijkstra-meets-Steiner label setting) seeded and
// guarded by the CD heuristic. It first runs CD, then — when the net
// fits exact.OracleLimits — tries to certify or beat that tree with an
// exact search whose incumbent is the CD objective. Any limit breach
// (too many sinks, window too large, label budget exhausted) falls back
// to the CD tree, so the oracle never fails where CD succeeds and never
// spends unbounded time. All gates are deterministic (sinks, window
// vertices, settled labels — never wall-clock), keeping routed results
// independent of machine speed, run count and thread count.
func solveExact(in *nets.Instance, env *Env) (*nets.RTree, error) {
	cd, err := solveCD(in, env)
	if err != nil {
		return nil, err
	}
	ev, err := nets.Evaluate(in, cd)
	if err != nil {
		return nil, err
	}
	lim := exact.OracleLimits()
	lim.UpperBound = ev.Total
	// The detail span splits the exact tier's cost between the CD seed
	// (the enclosing solve span minus this) and the goal-oriented
	// search, with the outcome as the attribute.
	searchT0 := env.Rec.Now()
	res, err := exact.SolveGoalLimits(env.Ctx, in, lim)
	if err != nil {
		if env.Ctx != nil && env.Ctx.Err() != nil {
			return nil, env.Ctx.Err() // cancellation is not a fallback case
		}
		env.Rec.DetailSpan(obs.StageSolve, -1, "exact-search:over-budget", searchT0)
		return cd, nil // over budget: stay on the heuristic tier
	}
	if res.Total <= ev.Total {
		env.Rec.DetailSpan(obs.StageSolve, -1, "exact-search:adopted", searchT0)
		return res.Tree, nil
	}
	// With dbif > 0 the exact reconstruction can carry a small
	// bifurcation gap above the DP value; keep whichever tree evaluates
	// better.
	env.Rec.DetailSpan(obs.StageSolve, -1, "exact-search:seed-kept", searchT0)
	return cd, nil
}

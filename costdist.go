// Package costdist is a production-oriented implementation of
// cost-distance Steiner trees for timing-constrained global routing,
// reproducing Held & Perner, "Cost-Distance Steiner Trees for
// Timing-Constrained Global Routing" (DAC 2025, arXiv:2503.04419).
//
// The library provides:
//
//   - a 3D global routing graph with layers, wire types and vias and a
//     linear (buffered-wire) delay model, including the technology-derived
//     bifurcation penalty dbif;
//   - the paper's fast randomized O(log t)-approximation algorithm for
//     cost-distance Steiner trees with bifurcation penalties, including
//     all practical enhancements of §III (SolveCD);
//   - the three baselines it is compared against — L1-shortest,
//     shallow-light and Prim-Dijkstra topologies, each embedded optimally
//     into the routing graph (Solve with methods L1/SL/PD);
//   - an exact reference solver for small instances (SolveExact);
//   - a timing-constrained global router with Lagrangean congestion and
//     timing pricing (RouteChip; its CD oracle runs DefaultCDOptions and
//     its delay weights follow one fixed schedule, so RouterOptions
//     holds only what a caller sets), synthetic chip generation matching
//     the paper's Table III (ChipSuite/GenerateChip), and the shared
//     objective evaluator (Evaluate) used for all comparisons;
//   - a batch-solving subsystem for throughput workloads: Solver reuses
//     a scratch arena so repeated solves stop allocating, and SolveBatch
//     fans instances across parallel workers with bit-identical results
//     to a sequential loop (see batch.go);
//   - a reuse policy for the router's one wave loop
//     (RouterOptions.Incremental): on, after the first
//     rip-up-and-reroute wave only nets invalidated by congestion or
//     timing price changes are re-solved, with cache and delta counters
//     reported in RouteMetrics; off, every net is re-solved in every
//     wave. RouterOptions.RepairTol ≥ 0
//     adds a topology-repair rung between replay and full re-solve: a
//     dirty net with a cached tree is first re-embedded optimally on
//     its cached topology (internal/reembed) and escalates to the
//     oracle only when the repair degrades past tolerance
//     (RouteMetrics.NetsRepaired / RepairEscalated);
//   - one fixed oracle table (internal/oracle) behind the Method type:
//     every fixed method names one table row, and the Portfolio driver
//     races every oracle but exact on each net and keeps the
//     best-priced tree. Per-oracle solve counts are reported in
//     RouteMetrics.SolvesByOracle;
//   - externalized router state and warm-started rerouting:
//     RouteChipCheckpoint returns the run's RouterState (cached trees
//     with solve snapshots, congestion multipliers, timing state),
//     MarshalCheckpoint/UnmarshalCheckpoint give it a versioned
//     byte-stable wire form, and RouteChipFrom diffs a new chip
//     against a checkpoint (moved pins, added/removed nets, capacity
//     edits — see PerturbChip for ECO-style perturbations) and
//     re-solves only the invalidated nets. An unperturbed warm start
//     solves nothing and reproduces the cold result exactly.
//
// Everything is deterministic given explicit seeds and uses only the
// standard library.
package costdist

import (
	"context"
	"io"

	"costdist/internal/buffering"
	"costdist/internal/chipgen"
	"costdist/internal/core"
	"costdist/internal/dly"
	"costdist/internal/exact"
	"costdist/internal/geom"
	"costdist/internal/grid"
	"costdist/internal/nets"
	"costdist/internal/obs"
	"costdist/internal/router"
	"costdist/internal/viz"
)

// Re-exported core types. The aliases make the internal implementation
// packages usable through the public API without exposing their import
// paths.
type (
	// Pt is a point in the gcell plane; Rect an inclusive rectangle.
	Pt   = geom.Pt
	Rect = geom.Rect

	// Graph is the 3D global routing graph; Costs the congestion-priced
	// view of its edge costs c(e) and delays d(e).
	Graph    = grid.Graph
	Costs    = grid.Costs
	Layer    = grid.Layer
	WireType = grid.WireType
	Vertex   = grid.V
	Arc      = grid.Arc

	// Instance is one cost-distance Steiner tree problem; Tree an
	// embedded Steiner tree; Evaluation the objective decomposition.
	Instance   = nets.Instance
	Sink       = nets.Sink
	Tree       = nets.RTree
	Step       = nets.Step
	Evaluation = nets.Eval
	PlaneTree  = nets.PlaneTree

	// CDOptions selects the §III enhancements of the core algorithm;
	// TraceEvent reports merges to trace callbacks; SearchWork counts
	// the searches' deterministic work (RouteMetrics.WorkPerWave).
	CDOptions  = core.Options
	TraceEvent = core.TraceEvent
	SearchWork = core.Work

	// Method selects a Steiner oracle driver — one row of the oracle
	// table for the fixed methods, plus the Portfolio driver.
	// RouterOptions and RouteMetrics configure and report full routing
	// runs.
	Method        = router.Method
	RouterOptions = router.Options
	RouteMetrics  = router.Metrics
	RouteResult   = router.Result

	// RouterState is the externalized state of a routing run — cached
	// trees with their solve snapshots, congestion multipliers, timing
	// state — produced by RouteChipCheckpoint and consumed by
	// RouteChipFrom for ECO-style warm-started rerouting.
	// RouterNetState is its per-net entry; PinSig the terminal
	// signature nets are diffed by.
	RouterState    = router.State
	RouterNetState = router.NetState
	PinSig         = nets.PinSig

	// Recorder is the structured-telemetry recorder attached via
	// RouterOptions.Recorder (nil = zero overhead, bit-identical
	// results). TelemetrySpan is one recorded span; WaveSnapshot the
	// per-wave convergence record its OnWave callback streams;
	// StageNanos one wave's walltime breakdown by pipeline stage
	// (RouteMetrics.StageNanosPerWave).
	Recorder      = obs.Recorder
	TelemetrySpan = obs.Span
	WaveSnapshot  = obs.WaveSnapshot
	StageNanos    = router.StageNanos

	// Chip is a generated design; ChipSpec its parameters; Tech the
	// electrical technology behind the delay model.
	Chip     = chipgen.Chip
	ChipSpec = chipgen.Spec
	Tech     = dly.Tech
	Buffer   = dly.Buffer

	// ExactResult carries the exact solvers' certified bounds;
	// ExactGoalLimits bounds the goal-oriented exact search.
	ExactResult     = exact.Result
	ExactGoalLimits = exact.GoalLimits

	// BufferResult reports explicit repeater insertion on a tree.
	BufferResult = buffering.Result
)

// The four Steiner tree algorithms of the paper's comparison (§IV-A),
// plus the Portfolio driver layered over the oracle table, which races
// several oracles on every net and keeps the best-priced tree. Exact routes
// every net with the goal-oriented exact tier (CD-seeded, deterministic
// budget, heuristic fallback beyond it).
const (
	L1        = router.L1
	SL        = router.SL
	PD        = router.PD
	CD        = router.CD
	Portfolio = router.Portfolio
	Exact     = router.Exact
)

// MethodByName resolves an oracle or driver name — an oracle name
// ("cd", "rsmt", "sl", "pd", "exact"), an alias ("l1"), or the driver
// mode "portfolio", case-insensitive — to its Method.
func MethodByName(name string) (Method, bool) { return router.MethodByName(name) }

// MethodNames returns every name MethodByName accepts in canonical
// form: the oracle names followed by the driver mode.
func MethodNames() []string { return router.MethodNames() }

// OracleNames returns the oracle table's canonical names, sorted — the
// keys of RouteMetrics.SolvesByOracle.
func OracleNames() []string { return router.OracleNames() }

// NewGrid builds a routing graph of nx×ny gcells with the given layer
// stack and physical gcell pitch in µm.
func NewGrid(nx, ny int32, layers []Layer, gcellUM float64) *Graph {
	return grid.New(nx, ny, layers, gcellUM)
}

// NewCosts returns a congestion-free cost view (all multipliers 1).
func NewCosts(g *Graph) *Costs { return grid.NewCosts(g) }

// DefaultTech returns the synthetic 5nm-flavoured technology with the
// given number of routing layers; Dbif derives the bifurcation penalty
// from its repeater chain model (paper §I).
func DefaultTech(layers int) Tech { return dly.DefaultTech(layers) }

// BuildLayers converts a technology into a grid layer stack.
func BuildLayers(t Tech) []Layer { return t.BuildLayers() }

// Dbif returns the technology's bifurcation delay penalty in ps.
func Dbif(t Tech) float64 { return t.Dbif() }

// DefaultCDOptions enables the enhancements used for the paper's "CD"
// experiments.
func DefaultCDOptions() CDOptions { return core.DefaultOptions() }

// SolveCD runs the paper's cost-distance algorithm (Algorithm 1 plus
// §III) on the instance.
func SolveCD(in *Instance, opt CDOptions) (*Tree, error) {
	return core.Solve(in, opt)
}

// SolveCDTraced is SolveCD with a per-merge callback (Figure 3 style).
func SolveCDTraced(in *Instance, opt CDOptions, trace func(TraceEvent)) (*Tree, error) {
	return core.SolveTraced(in, opt, trace)
}

// Solve runs any oracle driver standalone on an instance: one of the
// fixed algorithms or Portfolio (race the pool, keep the best-priced
// tree). Nothing in opt is read: the CD oracle runs DefaultCDOptions
// (every §III enhancement), as it does inside RouteChip, and each
// baseline runs at its one fixed parameterization (PD α = 0.3,
// SL ε = 0.25). Solver.Solve is the same through a reusable arena.
func Solve(in *Instance, m Method, opt RouterOptions) (*Tree, error) {
	return router.SolveNet(in, m, nil)
}

// SolveExact solves a small instance optimally (Dreyfus-Wagner-style
// DP); see ExactResult for the bound semantics.
func SolveExact(in *Instance) (*ExactResult, error) { return exact.Solve(in) }

// SolveExactGoal solves an instance optimally with the goal-oriented
// label-setting solver ("Dijkstra meets Steiner"): the same certified
// bounds as SolveExact, but best-first search with admissible
// mask-aware future costs, bounding-box pruning and an incumbent
// seeded by the CD heuristic push it to instances (8–12 sinks,
// realistic windows) far beyond the DP's reach. The context is checked
// periodically; cancellation returns promptly mid-search.
func SolveExactGoal(ctx context.Context, in *Instance) (*ExactResult, error) {
	return exact.SolveGoal(ctx, in)
}

// SolveExactGoalLimits is SolveExactGoal with explicit deterministic
// budgets (sinks, window vertices, settled labels, incumbent seed).
func SolveExactGoalLimits(ctx context.Context, in *Instance, lim ExactGoalLimits) (*ExactResult, error) {
	return exact.SolveGoalLimits(ctx, in, lim)
}

// DefaultExactGoalLimits returns the standalone goal-solver budget;
// ExactOracleLimits the conservative in-router budget of the "exact"
// oracle tier.
func DefaultExactGoalLimits() ExactGoalLimits { return exact.DefaultGoalLimits() }

// ExactOracleLimits returns the deterministic budget the "exact"
// oracle tier applies per net before falling back to the CD heuristic.
func ExactOracleLimits() ExactGoalLimits { return exact.OracleLimits() }

// Evaluate scores an embedded tree under objective (1) with the
// bifurcation delay model (3); all algorithms are compared through this
// single function.
func Evaluate(in *Instance, tr *Tree) (*Evaluation, error) {
	return nets.Evaluate(in, tr)
}

// DefaultRouterOptions mirrors the paper's routing setup.
func DefaultRouterOptions() RouterOptions { return router.DefaultOptions() }

// NewRecorder returns a telemetry recorder for RouterOptions.Recorder.
// Attaching one populates RouteMetrics.ObjectivePerWave /
// OverflowPerWave / StageNanosPerWave, captures per-stage spans for
// WriteTrace, and streams per-wave snapshots through OnWave — all
// without perturbing the routed result.
func NewRecorder() *Recorder { return obs.New() }

// WriteTrace renders a recorder's spans as Chrome trace_event JSON,
// loadable in chrome://tracing or Perfetto (grroute -trace writes these
// files).
func WriteTrace(w io.Writer, rec *Recorder) error {
	return obs.WriteTrace(w, rec.Spans())
}

// ValidateTrace checks that data is a well-formed Chrome trace_event
// document as produced by WriteTrace (CI round-trips every written
// trace through this).
func ValidateTrace(data []byte) error { return obs.ValidateTrace(data) }

// RouteChip runs the full timing-constrained global routing flow on a
// chip with the selected Steiner oracle.
func RouteChip(chip *Chip, m Method, opt RouterOptions) (*RouteResult, error) {
	return router.Route(chip, m, opt)
}

// RouteChipCtx is RouteChip with cancellation: the context is checked
// between rip-up-and-reroute waves and between per-net oracle solves, so
// a cancelled run returns ctx.Err() within roughly one net-solve
// latency. The non-cancelled path is bit-identical to RouteChip.
func RouteChipCtx(ctx context.Context, chip *Chip, m Method, opt RouterOptions) (*RouteResult, error) {
	return router.RouteCtx(ctx, chip, m, opt)
}

// RouteChipCheckpoint is RouteChip returning, alongside the result, the
// run's externalized state: a RouterState that RouteChipFrom can
// warm-start from, and that MarshalCheckpoint serializes. The routing
// result is bit-identical to RouteChip.
func RouteChipCheckpoint(chip *Chip, m Method, opt RouterOptions) (*RouteResult, *RouterState, error) {
	return router.RouteCheckpoint(context.Background(), chip, m, opt)
}

// RouteChipCtxCheckpoint is RouteChipCheckpoint with cancellation.
func RouteChipCtxCheckpoint(ctx context.Context, chip *Chip, m Method, opt RouterOptions) (*RouteResult, *RouterState, error) {
	return router.RouteCheckpoint(ctx, chip, m, opt)
}

// RouteChipFrom warm-starts routing on chip from a previous run's
// checkpoint: the chip is diffed against the state (moved, added or
// re-pinned nets; capacity edits), only the invalidated nets are
// re-solved in the first wave, and later waves run the ordinary
// incremental dirty-net scheduler under the restored congestion and
// timing prices. An unperturbed warm start re-solves nothing and
// reproduces the checkpointed result exactly. The returned state is
// the new run's checkpoint, so ECO chains compose.
func RouteChipFrom(st *RouterState, chip *Chip, m Method, opt RouterOptions) (*RouteResult, *RouterState, error) {
	return router.RouteFrom(context.Background(), st, chip, m, opt)
}

// RouteChipCtxFrom is RouteChipFrom with cancellation.
func RouteChipCtxFrom(ctx context.Context, st *RouterState, chip *Chip, m Method, opt RouterOptions) (*RouteResult, *RouterState, error) {
	return router.RouteFrom(ctx, st, chip, m, opt)
}

// PerturbChip returns an ECO-style variant of a chip with roughly frac
// of its nets perturbed (one sink cell each nudged a few gcells; at
// least one net for any frac > 0), plus the number of nets whose pin
// signature changed. The original chip is never modified, and the
// perturbed chip shares its grid — warm-start compatible with
// checkpoints of the original.
func PerturbChip(chip *Chip, frac float64, seed uint64) (*Chip, int, error) {
	return chipgen.Perturb(chip, frac, seed)
}

// ChipSuite returns the c1..c8 specs of Table III with net counts
// scaled by scale (1.0 = paper size; layer counts always exact).
func ChipSuite(scale float64) []ChipSpec { return chipgen.Suite(scale) }

// ChipSpecByName returns the suite spec with the given name at the
// given scale — the lookup shared by the CLIs and the service layer.
func ChipSpecByName(name string, scale float64) (ChipSpec, bool) {
	for _, s := range chipgen.Suite(scale) {
		if s.Name == name {
			return s, true
		}
	}
	return ChipSpec{}, false
}

// GenerateChip builds a synthetic design from a spec.
func GenerateChip(spec ChipSpec) (*Chip, error) { return chipgen.Generate(spec) }

// BufferTree inserts repeaters along an embedded tree at the optimal
// spacing of each wire and returns stage-accurate Elmore delays next to
// the linear-model prediction — the "after buffering" view that the
// linear delay model and dbif approximate (paper §I, Figure 2).
func BufferTree(in *Instance, tr *Tree, tech Tech) (*BufferResult, error) {
	return buffering.Buffer(in, tr, tech)
}

// RenderTree renders an embedded tree as an SVG (plane projection,
// layer-colored).
func RenderTree(in *Instance, tr *Tree, cellPx float64) string {
	return viz.RenderTree(in, tr, cellPx)
}

// RenderTraceFrames renders one SVG frame per merge of a traced CD run.
func RenderTraceFrames(in *Instance, events []TraceEvent, cellPx float64) []string {
	return viz.RenderTraceFrames(in, events, cellPx)
}

package costdist

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"costdist/internal/core"
	"costdist/internal/panics"
	"costdist/internal/router"
)

// Solver is a reusable Steiner tree solver. It owns a private scratch
// arena (component records, heaps, label pages, ownership stamps) that
// is recycled across calls, removing the per-call allocations that
// dominate repeated solves. Results are bit-identical to the package
// level SolveCD/Solve functions.
//
// A Solver also keeps the grid of the last instance document it built
// (Build): one graph and one multiplier array, replaced when the shape
// changes. An Instance returned by Build borrows them and stays valid
// only until that solver's next Build.
//
// A Solver is not safe for concurrent use; create one per goroutine.
// SolveBatch does this automatically.
type Solver struct {
	scr  *core.Scratch
	grid instanceGrid
}

// NewSolver returns a solver with an empty arena. The arena warms up
// over the first few calls as its containers grow to the working-set
// size of the instance stream.
func NewSolver() *Solver {
	return &Solver{scr: core.NewScratch()}
}

// SolveCD is SolveCD through the reusable arena. Any opt.Scratch set by
// the caller is replaced by the solver's own arena.
func (s *Solver) SolveCD(in *Instance, opt CDOptions) (*Tree, error) {
	opt.Scratch = s.scr
	return core.Solve(in, opt)
}

// SolveCDTraced is SolveCDTraced through the reusable arena.
func (s *Solver) SolveCDTraced(in *Instance, opt CDOptions, trace func(TraceEvent)) (*Tree, error) {
	opt.Scratch = s.scr
	return core.SolveTraced(in, opt, trace)
}

// Build is InstanceJSON.Build on the solver's cached grid: the same
// normalization, validation, error texts and resulting Instance, but a
// document of the shape (nx, ny, layers) the solver built last reuses
// its graph and multiplier array — the multipliers the previous build
// priced are written back to 1 first — instead of allocating both. A
// document of another shape replaces them, so a solver holds at most
// one grid.
//
// The returned Instance borrows the solver's graph and costs: it is
// valid until this solver's next Build, which rewrites them. Callers
// that keep an instance longer use InstanceJSON.Build or ParseInstance.
func (s *Solver) Build(f *InstanceJSON) (*Instance, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return s.grid.build(f), nil
}

// Solve runs any oracle driver — the five fixed methods, exact
// included, or Portfolio — through the reusable arena (the arena
// accelerates the CD oracle, including its solves inside Portfolio and
// the exact tier's CD seed; baselines pass through unchanged). Nothing
// in opt is read, as in Solve.
func (s *Solver) Solve(in *Instance, m Method, opt RouterOptions) (*Tree, error) {
	return router.SolveNet(in, m, s.scr)
}

// Solves reports how many solves completed through this solver's arena.
func (s *Solver) Solves() int { return s.scr.Solves }

// BatchOptions configures SolveBatch.
type BatchOptions struct {
	// Workers caps the number of parallel solver goroutines, each with
	// its own scratch arena; 0 or negative means runtime.GOMAXPROCS(0),
	// as RouterOptions.Threads. The worker count never affects results,
	// only throughput.
	Workers int
	// Router is passed on as Solve's opt, and like it is not read:
	// every oracle runs at its one fixed parameterization.
	Router RouterOptions
}

// DefaultBatchOptions pairs the paper's router setup with one worker
// per GOMAXPROCS slot.
func DefaultBatchOptions() BatchOptions {
	return BatchOptions{Router: DefaultRouterOptions()}
}

// BatchResult is the outcome for one instance of a batch: the embedded
// tree and its objective evaluation, or the error that instance
// produced. Exactly one of Tree/Err is non-nil.
type BatchResult struct {
	Tree *Tree
	Eval *Evaluation
	Err  error
}

// SolveBatch solves every instance with the selected method, fanning
// the work across parallel workers with one scratch arena each.
// Results[i] always belongs to ins[i], every instance is solved under
// its own Instance.Seed, and no state flows between instances — so the
// output is bit-identical to the sequential loop
//
//	for i, in := range ins { tree[i], _ = Solve(in, m, opt.Router) }
//
// regardless of worker count or scheduling.
//
// Instances may share their Graph and Costs (both are read-only during
// solves). A per-instance error does not abort the batch; check each
// BatchResult.Err. A panicking solve becomes its instance's error
// ("panicked: <value> at <function> (<file>:<line>)", naming the frame
// that raised it), and its worker continues on a fresh Solver.
func SolveBatch(ins []*Instance, m Method, opt BatchOptions) []BatchResult {
	out, _ := SolveBatchCtx(context.Background(), ins, m, opt)
	return out
}

// SolveBatchCtx is SolveBatch with cancellation. The context is checked
// before every instance claim, so a cancelled batch stops within one
// solve latency and returns ctx.Err(); results computed before the
// cancellation are kept (the rest stay zero-valued). On the
// non-cancelled path the error is nil and the results are bit-identical
// to SolveBatch.
func SolveBatchCtx(ctx context.Context, ins []*Instance, m Method, opt BatchOptions) ([]BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]BatchResult, len(ins))
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ins) {
		workers = len(ins)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewSolver()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(ins) {
					return
				}
				var intact bool
				if out[i], intact = solveOne(s, ins[i], m); !intact {
					s = NewSolver()
				}
			}
		}()
	}
	wg.Wait()
	return out, ctx.Err()
}

// solveOne solves one batch instance; intact is false when the solve
// panicked, which may leave s's arena mid-solve.
func solveOne(s *Solver, in *Instance, m Method) (res BatchResult, intact bool) {
	defer func() {
		if p := recover(); p != nil {
			res, intact = BatchResult{Err: panics.Error(p)}, false
		}
	}()
	tr, err := router.SolveNet(in, m, s.scr)
	if err != nil {
		return BatchResult{Err: err}, true
	}
	ev, err := Evaluate(in, tr)
	if err != nil {
		return BatchResult{Err: err}, true
	}
	return BatchResult{Tree: tr, Eval: ev}, true
}

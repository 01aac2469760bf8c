package exact

import (
	"context"
	"errors"
	"fmt"
	"math"

	"costdist/internal/embed"
	"costdist/internal/future"
	"costdist/internal/geom"
	"costdist/internal/grid"
	"costdist/internal/heaps"
	"costdist/internal/nets"
	"costdist/internal/rsmt"
)

// This file is the goal-oriented exact solver — the "Dijkstra meets
// Steiner" label-setting algorithm of Hougardy, Silvanus and Vygen
// (arXiv 1406.0492) adapted to cost-distance objectives. It computes
// the same value as the Dreyfus–Wagner DP in exact.Solve, but instead
// of filling every (mask, vertex) table entry in mask order it explores
// states best-first and prunes:
//
//   - labels are DP states (I, v) with value D[I][v], kept in a
//     priority queue ordered by D[I][v] + lb(I, v), where lb is the
//     admissible mask-aware completion bound of future.MaskEstimator
//     (goal orientation);
//   - the incumbent upper bound — the caller's heuristic objective
//     (the oracle adapter seeds the CD tree's) or the embedded-RSMT
//     baseline's — kills every label whose ordering key exceeds it
//     (upper-bound pruning);
//   - the search window is the terminal bounding box expanded by the
//     slack radius ub/minCost − halfPerimeter: no vertex further out
//     can be touched by any solution within the incumbent (bounding-box
//     pruning).
//
// Transitions mirror the DP recurrence: edge relaxations under the
// metric c(e) + w(I)·d(e), and merges of two labels at the same vertex
// paying β(w(I), w(J)). Merges are generated when the later of the two
// labels settles, against every already-settled mask at that vertex —
// together with re-settling on improvement this keeps the search exact
// under any admissible (not necessarily merge-consistent) bound: when
// the goal state (full mask, root) settles, its value is D[full][root].
//
// The solver is deterministic: states improve through strict
// comparisons only, and the label queue (a heaps.Lazy) pops equal keys
// in an order fixed by its sequence of pushes and pops, which is itself
// a function of the instance — so identical instances produce
// bit-identical trees on every run and thread count.

// GoalLimits bounds the goal-oriented solver's state space and work.
// The limits are deterministic — they count sinks, window vertices and
// settled labels, never wall-clock time — so a budgeted solve either
// certifies the optimum or fails identically on every run.
type GoalLimits struct {
	// MaxSinks gates the subset dimension (≤ 20; default 16).
	MaxSinks int
	// MaxWindowVerts gates the pruned window's vertex count.
	MaxWindowVerts int64
	// MaxLabels is the settled-label budget; exceeding it aborts with
	// ErrLabelBudget. 0 means unbounded.
	MaxLabels int64
	// UpperBound optionally seeds the incumbent with a known feasible
	// objective value — callers with a good heuristic tree (the oracle
	// adapter seeds the CD objective) should always pass it; tighter
	// incumbents prune harder. 0 derives one internally from the
	// embedded-RSMT baseline (exact cannot import core: the core
	// package's own tests cross-check against this package).
	UpperBound float64
}

// maxGoalSinks is the hard subset-dimension limit of the goal solver:
// masks are uint32 and the per-mask bound tables are dense.
const maxGoalSinks = 20

// DefaultGoalLimits returns the standalone (differential-harness)
// configuration: large windows, no label budget.
func DefaultGoalLimits() GoalLimits {
	return GoalLimits{MaxSinks: 16, MaxWindowVerts: 1 << 20}
}

// OracleLimits returns the conservative in-router budget of the
// "exact" oracle tier: small nets only, bounded window, a settled-label
// budget that caps one solve at a few milliseconds. Beyond any limit
// the oracle adapter falls back to the CD heuristic.
func OracleLimits() GoalLimits {
	return GoalLimits{MaxSinks: 8, MaxWindowVerts: 1 << 15, MaxLabels: 200_000}
}

// ErrLabelBudget reports a goal solve that exhausted its deterministic
// settled-label budget before certifying the optimum.
var ErrLabelBudget = errors.New("exact: settled-label budget exhausted")

// GoalStats reports the goal-oriented search's work, for benchmarks
// and budget tuning.
type GoalStats struct {
	// Settled counts labels made permanent (queue pops acted on);
	// Generated counts label records created (including improvements);
	// Pruned counts candidates killed by the incumbent upper bound.
	Settled, Generated, Pruned int64
	// WindowVerts is the vertex count of the pruned search window.
	WindowVerts int64
}

// SolveGoal solves the instance exactly with the goal-oriented
// label-setting algorithm under DefaultGoalLimits. The context is
// checked periodically; cancellation returns ctx.Err() promptly.
func SolveGoal(ctx context.Context, in *nets.Instance) (*Result, error) {
	return SolveGoalLimits(ctx, in, DefaultGoalLimits())
}

// glabel is one label record. Records are immutable once created
// (except the settled flag): improving a state appends a new record,
// so predecessor chains always describe the structure whose value the
// record carries, which keeps reconstruction sound.
type glabel struct {
	mask    uint32
	vert    int32 // window index
	dist    float64
	kind    traceKind
	settled bool
	pred    int32    // label index: edge tail, or merge part A
	pred2   int32    // label index: merge part B
	arc     grid.Arc // for edge labels
}

// goalSearch is the transient state of one solve.
type goalSearch struct {
	in     *nets.Instance
	win    grid.Window
	est    *future.MaskEstimator
	labels []glabel
	state  map[uint64]int32 // (mask, vert) -> current best label index
	queue  heaps.Lazy[int32]
	// settledMasks[vert] lists masks settled at that vertex at least
	// once — the merge partner sets.
	settledMasks [][]uint32
	ub           float64
	stats        GoalStats
}

func stateKey(mask uint32, vert int32) uint64 {
	return uint64(mask)<<32 | uint64(uint32(vert))
}

// SolveGoalLimits is SolveGoal with explicit limits; zero-valued limit
// fields take the DefaultGoalLimits values. It returns ErrLabelBudget
// (wrapped) when the settled-label budget runs out, and a size error
// when the instance exceeds MaxSinks or MaxWindowVerts — callers with
// a heuristic fallback (the oracle adapter) treat both as "stay on the
// heuristic tier".
func SolveGoalLimits(ctx context.Context, in *nets.Instance, lim GoalLimits) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	def := DefaultGoalLimits()
	if lim.MaxSinks == 0 {
		lim.MaxSinks = def.MaxSinks
	}
	if lim.MaxWindowVerts == 0 {
		lim.MaxWindowVerts = def.MaxWindowVerts
	}
	k := len(in.Sinks)
	if k > lim.MaxSinks || k > maxGoalSinks {
		return nil, fmt.Errorf("exact: %d sinks exceeds goal-solver limit %d", k, min(lim.MaxSinks, maxGoalSinks))
	}
	if k == 0 {
		return &Result{Tree: &nets.RTree{}}, nil
	}

	// Incumbent upper bound: the caller's (the oracle adapter passes the
	// CD objective) or the embedded-RSMT baseline's evaluated tree.
	// Every optimal decomposition's keys stay ≤ OPT ≤ ub, so pruning
	// against it never loses the certificate.
	ub := lim.UpperBound
	if ub == 0 {
		ub = math.Inf(1)
		if er, err := embed.Embed(in, rsmt.Build(in.TermPts())); err == nil {
			if ev, err := nets.Evaluate(in, er.Tree); err == nil {
				ub = ev.Total
			}
		}
	}

	s := &goalSearch{in: in, ub: ub}
	win := in.G.NewWindow(pruneWindow(in, ub))
	size := win.Size()
	if int64(size) > lim.MaxWindowVerts {
		return nil, fmt.Errorf("exact: pruned window has %d vertices, goal-solver limit %d", size, lim.MaxWindowVerts)
	}
	s.win = win
	s.stats.WindowVerts = int64(size)

	sinkPts := make([]geom.Pt, k)
	weights := make([]float64, k)
	for i, sk := range in.Sinks {
		sinkPts[i] = in.G.Pt(sk.V)
		weights[i] = sk.W
	}
	est, err := future.NewMaskEstimator(in.C, in.G.Pt(in.Root), sinkPts, weights)
	if err != nil {
		return nil, err
	}
	s.est = est

	full := uint32(1)<<uint(k) - 1
	rootIdx := win.Index(in.Root)
	if rootIdx < 0 {
		return nil, fmt.Errorf("exact: root outside window")
	}
	s.state = make(map[uint64]int32, 1024)
	s.settledMasks = make([][]uint32, size)

	// Base labels: one singleton per sink.
	for i, sk := range in.Sinks {
		idx := win.Index(sk.V)
		if idx < 0 {
			return nil, fmt.Errorf("exact: sink %d outside window", i)
		}
		s.relax(glabel{mask: uint32(1) << uint(i), vert: idx, kind: traceNone, pred: -1, pred2: -1})
	}

	goal := int32(-1)
	pops := 0
	for s.queue.Len() > 0 {
		if pops&511 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		pops++
		_, li := s.queue.Pop()
		l := &s.labels[li]
		if s.state[stateKey(l.mask, l.vert)] != li || l.settled {
			continue // superseded or already processed at this value
		}
		if lim.MaxLabels > 0 && s.stats.Settled >= lim.MaxLabels {
			return nil, fmt.Errorf("%w (%d labels, %d states)", ErrLabelBudget, s.stats.Settled, len(s.state))
		}
		l.settled = true
		s.stats.Settled++
		if l.mask == full && l.vert == rootIdx {
			goal = li
			break
		}
		s.settle(li)
	}
	if goal < 0 {
		return nil, fmt.Errorf("exact: goal state unreachable (disconnected window?)")
	}

	rt, err := s.reconstruct(goal)
	if err != nil {
		return nil, err
	}
	ev, err := nets.Evaluate(in, rt)
	if err != nil {
		return nil, fmt.Errorf("exact: reconstructed tree invalid: %w", err)
	}
	return &Result{LowerBound: s.labels[goal].dist, Total: ev.Total, Tree: rt, Goal: s.stats}, nil
}

// pruneWindow returns the search window: the terminal bounding box
// expanded by the incumbent-derived slack radius, intersected with the
// instance window. Any tree with evaluated total ≤ ub that touches a
// vertex at plane distance d from the terminal bbox pays congestion
// cost ≥ minCost·(halfPerimeter + d) — the tree's edge union is
// connected and spans both the bbox extremes and the vertex — so
// vertices beyond the radius cannot appear in any solution inside the
// incumbent, nor in any DP decomposition of one.
func pruneWindow(in *nets.Instance, ub float64) geom.Rect {
	bbox := geom.BBox(in.TermPts())
	minCost := in.C.MinCostPerGCell()
	if math.IsInf(ub, 1) || minCost <= 0 {
		return bbox.Expand(in.G.NX+in.G.NY, in.G.NX, in.G.NY).Intersect(in.Win)
	}
	slack := ub*(1+1e-9)/minCost - float64(bbox.HalfPerimeter())
	radius := int32(0)
	if slack > 0 {
		if slack > float64(in.G.NX+in.G.NY) {
			radius = in.G.NX + in.G.NY
		} else {
			radius = int32(slack) + 1
		}
	}
	return bbox.Expand(radius, in.G.NX, in.G.NY).Intersect(in.Win)
}

// relax offers a candidate label. It is dropped when the state already
// has an equal-or-better value or when its ordering key exceeds the
// incumbent; otherwise a new record is appended, published as the
// state's current best and pushed with key dist + lb.
func (s *goalSearch) relax(cand glabel) {
	key := stateKey(cand.mask, cand.vert)
	if cur, ok := s.state[key]; ok && s.labels[cur].dist <= cand.dist {
		return
	}
	f := cand.dist + s.est.Est(cand.mask, s.in.G.Pt(s.win.Vertex(cand.vert)))
	if f > s.ub*(1+1e-9)+1e-9 {
		s.stats.Pruned++
		return
	}
	li := int32(len(s.labels))
	s.labels = append(s.labels, cand)
	s.state[key] = li
	s.queue.Push(f, li)
	s.stats.Generated++
}

// settle processes a freshly settled label: merge transitions against
// every already-settled disjoint mask at the vertex, then edge
// relaxations into the window.
func (s *goalSearch) settle(li int32) {
	l := s.labels[li] // copy: s.labels may grow below
	v := s.win.Vertex(l.vert)

	// Merges. Partner values are the states' current bests — possibly
	// better than when the partner settled, which only helps; a partner
	// improved later re-settles and re-merges against this mask.
	masks := s.settledMasks[l.vert]
	already := false
	for _, j := range masks {
		if j == l.mask {
			already = true
			break
		}
	}
	if !already {
		s.settledMasks[l.vert] = append(masks, l.mask)
	}
	for _, j := range s.settledMasks[l.vert] {
		if j&l.mask != 0 {
			continue
		}
		pi := s.state[stateKey(j, l.vert)]
		beta := nets.Beta(s.in.DBif, s.in.Eta, s.est.W(l.mask), s.est.W(j))
		s.relax(glabel{
			mask: l.mask | j, vert: l.vert,
			dist: l.dist + s.labels[pi].dist + beta,
			kind: traceMerge, pred: li, pred2: pi,
		})
	}

	// Edge relaxations under c(e) + w(mask)·d(e).
	w := s.est.W(l.mask)
	costs := s.in.C
	s.in.G.Arcs(v, s.win.R, func(a grid.Arc) bool {
		to := s.win.Index(a.To)
		if to < 0 {
			return true
		}
		s.relax(glabel{
			mask: l.mask, vert: to,
			dist: l.dist + costs.ArcCost(a) + w*costs.ArcDelay(a),
			kind: traceEdge, pred: li, pred2: -1, arc: a,
		})
		return true
	})
}

// reconstruct walks the label DAG from the goal record and funnels the
// collected steps through PruneToTree, exactly like the DP.
func (s *goalSearch) reconstruct(goal int32) (*nets.RTree, error) {
	var steps []nets.Step
	stack := []int32{goal}
	for len(stack) > 0 {
		li := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		l := &s.labels[li]
		switch l.kind {
		case traceNone:
			// Singleton seed at its sink vertex.
		case traceMerge:
			stack = append(stack, l.pred, l.pred2)
		case traceEdge:
			steps = append(steps, nets.Step{From: s.win.Vertex(s.labels[l.pred].vert), Arc: l.arc})
			stack = append(stack, l.pred)
		}
	}
	return nets.PruneToTree(s.in, steps)
}

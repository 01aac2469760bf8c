package router

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"costdist/internal/chipgen"
	"costdist/internal/cong"
	"costdist/internal/core"
	"costdist/internal/geom"
	"costdist/internal/grid"
	"costdist/internal/nets"
	"costdist/internal/obs"
	"costdist/internal/oracle"
	"costdist/internal/panics"
	"costdist/internal/reembed"
	"costdist/internal/sta"
)

// runState is the mutable state of one routing run — everything the
// rip-up-and-reroute wave loop reads and writes: the run's inputs and
// driver, its routing workers, the congestion pricer, one record per
// net, the dirty-net scheduler's chip-wide state, the last wave's usage
// and the Result being filled in. Checkpoint() externalizes it;
// newRunFrom restores one.
type runState struct {
	ctx     context.Context
	chip    *chipgen.Chip
	m       Method
	opt     Options
	drv     driver
	workers []*worker

	pricer *cong.Pricer
	// nets holds every net's record, indexed like chip.NL.Nets;
	// allNets is the no-skip policy's work list.
	nets    []netState
	allNets []int32

	// The dirty-net scheduler's chip-wide state (computeDirty), built
	// only for a skip-policy run. tracker holds the multiplier reference
	// congestion drift is judged against (cong.DeltaTracker), advanced
	// only by the fused end-of-wave price update; pendRects/pendSegs
	// stash that update's result, the only change source the next pass
	// reads. They stay empty when no update ran since the last pass: at
	// cold wave 0 the multipliers still equal the reference, and after
	// a quiesced warm wave they have not moved since the last fused
	// update advanced it. cand marks the nets whose region overlaps a
	// changed rectangle in the current pass; only they are repriced.
	// seed, when non-nil, replaces the next pass's drift checks: the
	// wave's work list is seed ∪ {never solved}. Warm starts set it to
	// make the resumed run's first wave solve exactly the instance diff
	// (RouteFrom); the checkpoint's prices are the clean baseline, so
	// pre-checkpoint residue must not re-dirty restored nets.
	tracker   *cong.DeltaTracker
	pendRects []geom.Rect
	pendSegs  int
	cand      []bool
	seed      []bool

	usage *cong.Usage
	res   *Result
	start time.Time

	// rec is the optional telemetry recorder (nil = zero overhead). It
	// comes from Options.Recorder and never influences routing decisions.
	rec *obs.Recorder

	// warm marks a warm-started run (RouteFrom): its first wave solves
	// only the seeded dirty set, and a wave that solved zero nets skips
	// the Lagrangean updates entirely (quiesce) — no new information
	// was produced, so repricing would only drift the restored state
	// away from the checkpoint it came from. The cold path never
	// quiesces.
	warm bool
}

// netState is one net's record in a run: its per-sink Lagrangean timing
// prices (delay weights and budgets), its current tree with the routed
// sink delays, and the snapshot of the solve that made the tree current
// — the inputs the dirty-net scheduler judges drift against, the repair
// rung's escalation baseline, the plane region and the flat step cache.
// runState.adopt writes the tree and the snapshot; NetState is the
// record's externalized form.
type netState struct {
	weights, delays, budgets []float64
	tree                     *nets.RTree

	// snapW/snapB copy the weights/budgets the tree was adopted under,
	// one entry per sink; nil snapW marks "never solved". snapCost is
	// the tree's priced congestion cost at adoption; fullCost that of
	// the last FULL oracle solve. Unlike snapCost, adopted repairs do not
	// rebaseline fullCost, so successive repairs accumulate drift
	// against the last real solve and the escalation rule (repaired cost
	// > (1+RepairTol)·fullCost) eventually fires instead of a congested
	// net dodging the oracle forever through small repair steps.
	snapW, snapB       []float64
	snapCost, fullCost float64
	// region is the net's candidate region: the tree's bounding box
	// (initially the terminals') plus incHalo.
	region geom.Rect
	// segs, base and capUse decompose the tree into flat per-step arrays
	// in tree step order: segment id, congestion base cost (ArcCost of
	// step i is Mult[segs[i]]·base[i]) and capacity consumed
	// (Usage.AddArc adds capUse[i] to segs[i]). Repricing a candidate
	// tree and replaying a clean net's usage become tight array loops
	// instead of walks that re-derive both quantities from each
	// grid.Arc; the accumulation order is the step order either way, so
	// the floating-point results are bitwise unchanged.
	segs   []int32
	base   []float64
	capUse []float32
}

// worker is one routing worker's private state, kept for the whole run:
// its solver and repair arenas and its telemetry sink (nil without a
// recorder). repaired, escalated and err are the current wave's repair
// tallies and first failure. runWaves sums the tallies over workers in
// worker order; integer addition commutes, so the totals are
// independent of how nets land on workers.
type worker struct {
	scr *core.Scratch
	re  *reembed.Scratch
	obs *obs.Worker

	repaired, escalated int
	err                 error
}

// The fixed parameters of every net's subproblem and of its timing
// prices: the paper's penalty share η (§IV-A), the routing window's
// margin in gcells beyond the terminals' bounding box, and the
// slack-driven delay weight schedule w ← clamp(w·exp(−slack/τ), base,
// max) of ref [13].
const (
	eta        = 0.25
	margin     = 6
	weightBase = 5e-4
	weightTau  = 800
	weightMax  = 0.05
)

// checkOptions refuses the run options no routing run can honour: fewer
// than one wave, an IncrementalTol that is negative, NaN or +Inf, and
// congestion-price parameters outside the ranges the Options fields
// state. Every entry point (Route, RouteCheckpoint, RouteFrom) passes
// through newRun, which calls it first.
func checkOptions(opt Options) error {
	if opt.Waves < 1 {
		return fmt.Errorf("router: Waves %d is not a wave count; a run needs at least 1", opt.Waves)
	}
	if opt.IncrementalTol < 0 {
		return fmt.Errorf("router: IncrementalTol %v is negative; to re-solve every net in every wave set Incremental=false", opt.IncrementalTol)
	}
	if math.IsNaN(opt.IncrementalTol) || math.IsInf(opt.IncrementalTol, 1) {
		return fmt.Errorf("router: IncrementalTol is %v; no drift exceeds it, so after wave 0 no net would ever be re-solved", opt.IncrementalTol)
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"PriceAlpha", opt.PriceAlpha}, {"PriceTarget", opt.PriceTarget}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("router: %s is %v; it must be finite", f.name, f.v)
		}
	}
	if opt.PriceAlpha < 0 {
		return fmt.Errorf("router: PriceAlpha %v is negative; congestion prices would fall as usage rises", opt.PriceAlpha)
	}
	return nil
}

// newRun assembles the cold-start state: fresh multipliers, cached
// trees empty, and the pre-wave timing estimate seeding every sink's
// delay weight and budget.
func newRun(ctx context.Context, chip *chipgen.Chip, m Method, opt Options) (*runState, error) {
	if err := checkOptions(opt); err != nil {
		return nil, err
	}
	r := &runState{
		ctx: ctx, chip: chip, m: m, opt: opt,
		rec:   opt.Recorder,
		start: time.Now(),
	}
	g := chip.G
	nl := chip.NL
	drv, err := newDriver(m)
	if err != nil {
		return nil, err
	}
	r.drv = drv
	threads := opt.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	bufs := r.rec.Workers(threads) // span buffers; nil without a recorder
	r.workers = make([]*worker, threads)
	for i := range r.workers {
		w := &worker{scr: core.NewScratch(), re: reembed.NewScratch()}
		if bufs != nil {
			w.obs = bufs[i]
			w.re.Obs = w.obs
		}
		r.workers[i] = w
	}
	r.pricer = cong.NewPricer(g, opt.PriceAlpha, opt.PriceTarget)

	r.nets = make([]netState, len(nl.Nets))
	for ni := range r.nets {
		n, net := &r.nets[ni], nl.Nets[ni]
		n.weights = make([]float64, len(net.Sinks))
		n.delays = make([]float64, len(net.Sinks))
		n.budgets = make([]float64, len(net.Sinks))
		for k := range net.Sinks {
			n.weights[k] = weightBase
		}
		reg := geom.EmptyRect().Add(nl.Cells[net.Driver].Pos)
		for _, s := range net.Sinks {
			reg = reg.Add(nl.Cells[s].Pos)
		}
		n.region = reg.Expand(incHalo, g.NX, g.NY)
	}
	r.res = &Result{}

	// Pre-wave timing: estimate net delays from L1 distances on a
	// mid-stack layer and derive initial delay weights and budgets, so
	// every sink carries its Lagrangean timing price from the first wave
	// (ref [13] prices all timing constraints from the start; a purely
	// reactive update would let delay-oblivious trees poison wave 0).
	// The weights start at weightBase, so this first update scales the
	// floor.
	mid := g.Layers[len(g.Layers)/2]
	r.updateTiming(func(n, k int) float64 {
		net := nl.Nets[n]
		d := geom.L1(nl.Cells[net.Driver].Pos, nl.Cells[net.Sinks[k]].Pos)
		return float64(d)*mid.Wires[0].DelayPerGCell + 2*mid.ViaDelay
	})

	// The full work list; the skip policy replaces it with the dirty
	// subset, and only it needs the scheduler's state.
	r.allNets = make([]int32, len(nl.Nets))
	for i := range r.allNets {
		r.allNets[i] = int32(i)
	}
	if opt.Incremental {
		r.tracker = cong.NewDeltaTracker(g, opt.IncrementalTol)
		r.cand = make([]bool, len(nl.Nets))
	}
	return r, nil
}

// runWaves executes opt.Waves rip-up-and-reroute iterations on the
// state: the work list, the parallel per-net oracle solves, usage
// replayed in net order and the Lagrangean price updates. The reuse
// policy (opt.Incremental: skip clean nets, or re-solve every net) is
// consulted in exactly two places — the work list and tracked-vs-plain
// pricing; everything else is one path.
func (r *runState) runWaves() error {
	ctx, chip, opt, drv := r.ctx, r.chip, r.opt, &r.drv
	g := chip.G
	nl := chip.NL
	nNets := len(nl.Nets)
	rec := r.rec
	repairOn := opt.Incremental && opt.RepairTol >= 0

	for wave := 0; wave < opt.Waves; wave++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		waveT0 := rec.Now()
		costs := r.pricer.Costs()
		// The capture wave snapshots every fully solved net, indexed by
		// net so Result.Captured comes out in net order whatever the
		// scheduling; all of them share one copy of the wave's prices.
		var captured []*nets.Instance
		var capCosts *grid.Costs
		if wave == opt.CaptureWave {
			captured = make([]*nets.Instance, nNets)
			c := *costs
			c.Mult = append([]float32(nil), costs.Mult...)
			capCosts = &c
		}

		work := r.allNets
		deltaSegs := 0
		if opt.Incremental {
			// Dirty-net scheduling: invalidate nets whose cached tree got
			// repriced or whose timing inputs drifted. Wave 0 marks every
			// net dirty (nothing has been solved yet); a warm-started run
			// instead seeds wave 0 with the instance diff.
			dirtyT0 := rec.Now()
			work, deltaSegs = r.computeDirty(costs)
			rec.Span(obs.StageDirty, int32(wave), -1, "", dirtyT0)
		}
		nWork := len(work)

		var next atomic.Int64
		var wg sync.WaitGroup
		for _, w := range r.workers {
			w.repaired, w.escalated, w.err = 0, 0, nil
			// A nil telemetry sink (no recorder) records nothing.
			if w.obs != nil {
				w.obs.Wave = int32(wave)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				// A panicking oracle fails the run instead of the
				// process; the worker's arenas are discarded with the
				// run.
				ni := -1
				defer func() {
					if p := recover(); p != nil {
						w.err = fmt.Errorf("net %d: %w", ni, panics.Error(p))
					}
				}()
				// Each worker solves through its own arena; results are
				// unchanged (solves are per-instance deterministic) while
				// per-net solver allocations disappear. Ctx lets the exact
				// tier abandon a label search mid-solve on cancellation,
				// tightening the kill latency below one full exact solve.
				env := oracle.Env{Scratch: w.scr, Ctx: ctx, Rec: w.obs}
				for {
					// The cancellation point of the hot loop: one check per
					// net claim, so a kill takes effect within one solve.
					if ctx.Err() != nil {
						return
					}
					idx := int(next.Add(1)) - 1
					if idx >= nWork {
						return
					}
					ni = int(work[idx])
					n := &r.nets[ni]
					in := buildInstance(chip, ni, n.weights, costs, opt.Seed)
					in.Budgets = n.budgets
					if repairOn && n.snapW != nil && n.tree != nil {
						// The middle rung, for a net with a cached tree:
						// re-embed its topology under the current prices,
						// weights and budgets. Adopted repairs skip
						// the oracle (and the capture hook — they are not
						// fresh solves); failures fall through to one.
						repT0 := w.obs.Now()
						if r.tryRepair(ni, w.re, in) {
							w.obs.Span(obs.StageRepair, int32(ni), "adopted", repT0)
							w.repaired++
							continue
						}
						w.obs.Span(obs.StageRepair, int32(ni), "escalated", repT0)
						w.escalated++
					}
					solveT0 := w.obs.Now()
					tr, oi, ev, err := drv.solve(in, &env)
					name := ""
					if oi >= 0 {
						name = oracleNames[oi]
					}
					w.obs.Span(obs.StageSolve, int32(ni), name, solveT0)
					if err != nil {
						if w.err == nil {
							w.err = fmt.Errorf("net %d: %w", ni, err)
						}
						continue
					}
					if ev == nil {
						ev, err = nets.Evaluate(in, tr)
						if err != nil {
							if w.err == nil {
								w.err = fmt.Errorf("net %d eval: %w", ni, err)
							}
							continue
						}
					}
					r.adopt(ni, tr, ev.SinkDelay, ev.CongCost, true)
					if captured != nil && len(in.Sinks) >= 1 {
						captured[ni] = snapshot(in, capCosts)
					}
				}
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return err
		}
		nRepaired, nEscalated := 0, 0
		var searched core.Work
		var repairSettles int64
		for _, w := range r.workers {
			if w.err != nil {
				return w.err
			}
			nRepaired += w.repaired
			nEscalated += w.escalated
			// The arenas count cumulatively; take the wave's share and
			// start the next wave from zero.
			searched.Add(w.scr.Work)
			w.scr.Work = core.Work{}
			repairSettles += int64(w.re.TakeSettles())
		}
		replayT0 := rec.Now()
		// Rebuild usage from every tree, cached or fresh, in net order:
		// skipped nets still occupy their tracks, and the float32 sums are
		// the same whatever the worker count or the set of nets re-solved.
		// The flat step caches replay each tree without re-deriving
		// per-arc capacities.
		r.usage = cong.NewUsage(g)
		r.replayUsage(r.usage)
		rec.Span(obs.StageReplay, int32(wave), -1, "", replayT0)
		r.res.Metrics.WorkPerWave = append(r.res.Metrics.WorkPerWave, searched)
		r.res.Metrics.RepairSettlesPerWave = append(r.res.Metrics.RepairSettlesPerWave, repairSettles)
		r.res.Metrics.NetsSolved += int64(nWork - nRepaired)
		r.res.Metrics.NetsSkipped += int64(nNets - nWork)
		r.res.Metrics.NetsRepaired += int64(nRepaired)
		r.res.Metrics.RepairEscalated += int64(nEscalated)
		r.res.Metrics.SolvedPerWave = append(r.res.Metrics.SolvedPerWave, nWork-nRepaired)
		r.res.Metrics.SkippedPerWave = append(r.res.Metrics.SkippedPerWave, nNets-nWork)
		r.res.Metrics.DeltaSegsPerWave = append(r.res.Metrics.DeltaSegsPerWave, deltaSegs)
		if repairOn {
			r.res.Metrics.RepairedPerWave = append(r.res.Metrics.RepairedPerWave, nRepaired)
			r.res.Metrics.EscalatedPerWave = append(r.res.Metrics.EscalatedPerWave, nEscalated)
		}
		for _, in := range captured {
			if in != nil {
				r.res.Captured = append(r.res.Captured, in)
			}
		}

		// A quiesced warm wave: nothing was re-solved, so the solution
		// and its prices are mutually converged at tolerance — skip the
		// Lagrangean updates rather than drift the restored equilibrium.
		// This is what makes a zero-perturbation warm start reproduce
		// the checkpointed objective exactly. Cold waves always update.
		if !(r.warm && nWork == 0) {
			// Lagrangean updates: congestion prices, delay weights and the
			// globally optimized per-sink delay budgets (routed delay plus
			// the slack the endpoint can still afford) consumed by the
			// shallow-light baseline, per ref [13]. When another skip-policy
			// wave follows, the price update and the delta tracker's drift
			// sweep fuse into one pass and the result is stashed for that
			// wave's computeDirty; the last wave, and every no-skip wave,
			// prices plainly and leaves the tracker alone.
			priceT0 := rec.Now()
			if opt.Incremental && wave+1 < opt.Waves {
				r.pendRects, r.pendSegs = r.pricer.UpdateTracked(r.tracker, r.usage)
			} else {
				r.pricer.Update(r.usage)
			}
			r.updateTiming(func(n, k int) float64 { return r.nets[n].delays[k] })
			rec.Span(obs.StagePrice, int32(wave), -1, "", priceT0)
		}

		// The wave barrier's telemetry snapshot: merge the worker span
		// buffers (deterministic worker order), score the solution under
		// the wave's final prices and weights — on the last wave this is
		// exactly what finish() reports — and fire the streaming
		// callback. Quiesced warm waves snapshot too (≥ 1 event per
		// wave), they just score unchanged state.
		if rec != nil {
			rec.Span(obs.StageWave, int32(wave), -1, "", waveT0)
			rec.EndWave(obs.WaveSnapshot{
				Wave:      wave,
				Objective: r.objective(r.pricer.Costs()),
				Overflow:  cong.Overflow(r.usage),
				Solved:    nWork - nRepaired,
				Skipped:   nNets - nWork,
				Repaired:  nRepaired,
				Escalated: nEscalated,
			})
		}
	}
	return nil
}

// updateTiming is the Lagrangean timing-price update: STA under the
// given per-sink delays, then every sink's delay weight is scaled by
// exp(−slack/weightTau) and clamped to [weightBase, weightMax], and its
// budget becomes its delay plus the slack the endpoint can still afford
// (floored at 0) — the per-sink budgets the shallow-light baseline
// consumes, per ref [13].
func (r *runState) updateTiming(delay func(n, k int) float64) {
	nl := r.chip.NL
	timing := sta.Analyze(nl, delay, r.chip.ClkPeriod)
	for ni := range r.nets {
		n := &r.nets[ni]
		for k := range n.weights {
			slack := timing.PinSlack(ni, k)
			w := n.weights[k] * math.Exp(-slack/weightTau)
			if w < weightBase {
				w = weightBase
			}
			if w > weightMax {
				w = weightMax
			}
			n.weights[k] = w
			b := delay(ni, k) + slack
			if b < 0 {
				b = 0
			}
			n.budgets[k] = b
		}
	}
}

// tryRepair runs the repair rung on one dirty net: re-embed its cached
// topology under the wave's prices (internal/reembed) and adopt the
// result unless the escalation rule fires. It returns whether the
// repair was adopted; false sends the net to a full oracle solve. The
// decision is a pure function of (instance, cached tree, snapshots), so
// results stay independent of worker count and scheduling.
func (r *runState) tryRepair(ni int, re *reembed.Scratch, in *nets.Instance) bool {
	n := &r.nets[ni]
	out, err := reembed.Repair(in, n.tree, re)
	if err != nil {
		// Unrepairable (table cap, malformed cache): escalate.
		return false
	}
	// Escalation rule 1: even the repaired embedding drifted beyond
	// RepairTol relative to the last FULL solve's priced cost. fullCost
	// is deliberately not rebaselined by adopted repairs, so a net that
	// keeps degrading in small steps cannot dodge the oracle forever.
	if out.Eval.CongCost > (1+r.opt.RepairTol)*n.fullCost {
		return false
	}
	// Escalation rule 2: a delay budget is violated and the run's driver
	// actually consumes budgets — the repair cannot re-plan the topology
	// the way a budget-aware solve would.
	if r.drv.usesBudgets {
		for k, d := range out.Eval.SinkDelay {
			if d > n.budgets[k] {
				return false
			}
		}
	}
	// Not a full solve: snapCost rebaselines (drift churn stops) but
	// fullCost keeps pointing at the last real solve.
	r.adopt(ni, out.Tree, out.Eval.SinkDelay, out.Eval.CongCost, false)
	return true
}

// adopt makes tr net ni's current tree with the given sink delays and
// snapshots, in the net's record, what it was solved under: the net's
// weights and budgets, the tree's priced congestion cost congCost, the
// tree's region and its flat step cache. Every tree a run makes current
// goes through here, under either reuse policy: a full solve, an adopted
// repair, a restored checkpoint tree. full marks a full oracle solve or a restored tree, which also
// rebaselines the repair rung's escalation cost; an adopted repair
// leaves that at the last full solve. Workers adopt disjoint nets, so
// no locking is needed.
func (r *runState) adopt(ni int, tr *nets.RTree, delays []float64, congCost float64, full bool) {
	g := r.chip.G
	n := &r.nets[ni]
	n.tree = tr
	copy(n.delays, delays)
	n.snapW = append(n.snapW[:0], n.weights...)
	n.snapB = append(n.snapB[:0], n.budgets...)
	n.snapCost = congCost
	if full {
		n.fullCost = congCost
	}
	if b := tr.BBox(g); !b.Empty() {
		n.region = b.Expand(incHalo, g.NX, g.NY)
	}
	n.segs, n.base, n.capUse = n.segs[:0], n.base[:0], n.capUse[:0]
	for _, st := range tr.Steps {
		a := st.Arc
		base := g.Layers[a.L].ViaCost
		if !a.Via {
			base = g.Layers[a.L].Wires[a.WT].CostPerGCell
		}
		n.segs = append(n.segs, a.Seg)
		n.base = append(n.base, base)
		n.capUse = append(n.capUse, g.ArcCapUse(a))
	}
}

// buildInstance assembles the cost-distance subproblem for one net under
// the current prices and weights. Every net takes the chip's
// bifurcation penalty, the penalty share eta and a routing window margin
// gcells beyond its terminals' bounding box.
func buildInstance(chip *chipgen.Chip, ni int, w []float64, costs *grid.Costs, seed uint64) *nets.Instance {
	n := chip.NL.Nets[ni]
	in := &nets.Instance{
		G: chip.G, C: costs,
		Root: chip.PinVertex(n.Driver),
		DBif: chip.DBif, Eta: eta,
		Seed: seed*0x9E3779B9 + uint64(ni),
	}
	for k, s := range n.Sinks {
		in.Sinks = append(in.Sinks, nets.Sink{V: chip.PinVertex(s), W: w[k]})
	}
	in.Win = in.DefaultWindow(margin)
	return in
}

// snapshot copies an instance for Tables I/II instance capture. costs
// is the capture wave's copy of the prices and the budgets are copied,
// so the instance stays valid after the pricer and the timing update
// rewrite the live multipliers and budgets in place.
func snapshot(in *nets.Instance, costs *grid.Costs) *nets.Instance {
	out := *in
	out.C = costs
	out.Sinks = append([]nets.Sink{}, in.Sinks...)
	out.Budgets = append([]float64(nil), in.Budgets...)
	return &out
}

package router

import (
	"time"

	"costdist/internal/cong"
	"costdist/internal/core"
	"costdist/internal/grid"
	"costdist/internal/nets"
	"costdist/internal/obs"
	"costdist/internal/sta"
)

// Metrics are the per-run columns of Tables IV and V, plus the
// work-avoidance counters of the dirty-net scheduler. The JSON tags are
// the row's one wire form (MarshalRouteResult, MarshalCheckpoint, the
// service's replies): field order is key order, and every field except
// the two wall-clock ones is a pure function of (chip, method, options),
// which the content-addressed caches and the byte-stable checkpoint
// codec depend on.
type Metrics struct {
	WS       float64 `json:"ws_ps"`        // worst slack, ps
	TNS      float64 `json:"tns_ps"`       // total negative slack, ps
	ACE4     float64 `json:"ace4_pct"`     // percent
	WLm      float64 `json:"wirelength_m"` // wirelength in meters
	Vias     int64   `json:"vias"`
	Overflow float64 `json:"overflow"`
	// Walltime is the wall-clock duration of the run — nondeterministic,
	// so it is excluded from the wire form here, in exactly one place,
	// and comes back zero from every Unmarshal.
	Walltime time.Duration `json:"-"`

	// Objective is the summed paper objective (1) of the final trees —
	// congestion cost under the final multipliers plus weighted sink
	// delay under the final weights. It is the scalar the two reuse
	// policies are compared on.
	Objective float64 `json:"objective"`

	// NetsSolved counts oracle solves summed over all waves; NetsSkipped
	// counts cache hits — nets that kept their cached tree because the
	// dirty-net scheduler found no relevant price change. With
	// Incremental off every net is solved every wave and NetsSkipped is
	// zero.
	NetsSolved  int64 `json:"nets_solved"`
	NetsSkipped int64 `json:"nets_skipped"`
	// SolvedPerWave and SkippedPerWave split the counters by wave;
	// DeltaSegsPerWave is the wave's delta volume — congestion segments
	// whose multiplier moved beyond tolerance (always zero with
	// Incremental off, where deltas are not tracked).
	SolvedPerWave    []int `json:"solved_per_wave,omitempty"`
	SkippedPerWave   []int `json:"skipped_per_wave,omitempty"`
	DeltaSegsPerWave []int `json:"delta_segs_per_wave,omitempty"`

	// SolvesByOracle counts oracle invocations by oracle name. A
	// fixed method charges every solve to its one oracle; Portfolio
	// charges every pool member
	// it races (so the total exceeds NetsSolved by the pool factor).
	// Only oracles with at least one solve appear.
	SolvesByOracle map[string]int64 `json:"solves_by_oracle,omitempty"`

	// NetsRepaired counts dirty nets absorbed by the topology-repair
	// rung (fixed-topology re-embedding adopted, no oracle solve);
	// RepairEscalated counts repair attempts that fell through to a full
	// solve (those nets are also in NetsSolved). Both stay zero unless
	// Options.RepairTol ≥ 0. RepairedPerWave and EscalatedPerWave split
	// the counters by wave; they are only populated when the rung is
	// enabled, so disabled runs keep their legacy wire form.
	NetsRepaired     int64 `json:"nets_repaired,omitempty"`
	RepairEscalated  int64 `json:"repair_escalated,omitempty"`
	RepairedPerWave  []int `json:"repaired_per_wave,omitempty"`
	EscalatedPerWave []int `json:"escalated_per_wave,omitempty"`

	// Telemetry series, populated only when Options.Recorder is set
	// (nil otherwise, so runs without a recorder keep their legacy
	// metrics row bit-for-bit). ObjectivePerWave and OverflowPerWave
	// score the solution at each wave barrier under that wave's final
	// prices and weights — the last entry equals Objective/Overflow —
	// and are deterministic, so they participate in the wire form.
	// StageNanosPerWave is the wave's wall-clock breakdown by pipeline
	// stage; like Walltime it is nondeterministic and excluded.
	ObjectivePerWave  []float64    `json:"objective_per_wave,omitempty"`
	OverflowPerWave   []float64    `json:"overflow_per_wave,omitempty"`
	StageNanosPerWave []StageNanos `json:"-"`

	// WorkPerWave sums, per wave, the core search work (core.Work) of
	// every oracle solve the wave ran, over all workers. A sum over nets
	// is independent of the worker count, so it is a deterministic count
	// a test can pin; it stays off the wire like StageNanosPerWave, so it
	// comes back nil from every Unmarshal.
	WorkPerWave []core.Work `json:"-"`
	// RepairSettlesPerWave sums, per wave, the labels the repair rung's
	// re-embedding spreads settled (embed.Workspace.Settles) over all
	// workers: the rung's search work beside WorkPerWave, as deterministic
	// and as far off the wire.
	RepairSettlesPerWave []int64 `json:"-"`
}

// StageNanos is one wave's walltime breakdown in nanoseconds. Dirty,
// Price and Replay are serial stages measured once per wave; Repair and
// Solve sum across workers, so on multi-threaded runs they can exceed
// the wave's wall-clock duration (they measure work, not elapsed time).
type StageNanos struct {
	Dirty  int64 `json:"dirty_ns"`
	Price  int64 `json:"price_ns"`
	Repair int64 `json:"repair_ns"`
	Solve  int64 `json:"solve_ns"`
	Replay int64 `json:"replay_ns"`
}

// Result is the outcome of a routing run.
type Result struct {
	Metrics Metrics
	// Trees holds the final embedded tree of every net, indexed like
	// chip.NL.Nets (nil for nets the run never routed). They are what
	// Metrics.Objective scores, and what MarshalRouteResult serializes.
	Trees []*nets.RTree
	// Captured holds standalone instances snapshot at CaptureWave, in
	// net order, each with the prices and budgets its solve consumed.
	Captured []*nets.Instance
}

// finish evaluates the final metric row from the state the waves left
// behind and returns the run's Result.
func (r *runState) finish() *Result {
	nl := r.chip.NL
	res := r.res
	timing := sta.Analyze(nl, func(n, k int) float64 { return r.nets[n].delays[k] }, r.chip.ClkPeriod)
	var vias int64
	res.Trees = make([]*nets.RTree, len(r.nets))
	for ni := range r.nets {
		tr := r.nets[ni].tree
		res.Trees[ni] = tr
		if tr == nil {
			continue
		}
		for _, st := range tr.Steps {
			if st.Arc.Via {
				vias++
			}
		}
	}
	// Score the final trees under the final prices and weights — the
	// common scalar objective both reuse policies are judged on.
	res.Metrics.Objective = r.objective(r.pricer.Costs())
	res.Metrics.SolvesByOracle = r.drv.solvesByOracle(res.Metrics.NetsSolved)
	res.Metrics.WS = timing.WS
	res.Metrics.TNS = timing.TNS
	res.Metrics.ACE4 = cong.ACE4(r.usage)
	res.Metrics.WLm = r.usage.WirelengthM()
	res.Metrics.Vias = vias
	res.Metrics.Overflow = cong.Overflow(r.usage)
	res.Metrics.Walltime = time.Since(r.start)
	if r.rec != nil {
		for _, ws := range r.rec.Waves() {
			res.Metrics.ObjectivePerWave = append(res.Metrics.ObjectivePerWave, ws.Objective)
			res.Metrics.OverflowPerWave = append(res.Metrics.OverflowPerWave, ws.Overflow)
			res.Metrics.StageNanosPerWave = append(res.Metrics.StageNanosPerWave, StageNanos{
				Dirty:  ws.StageNanos[obs.StageDirty],
				Price:  ws.StageNanos[obs.StagePrice],
				Repair: ws.StageNanos[obs.StageRepair],
				Solve:  ws.StageNanos[obs.StageSolve],
				Replay: ws.StageNanos[obs.StageReplay],
			})
		}
	}
	return res
}

// objective scores the current trees under the given congestion costs
// plus the weighted sink delays under the current weights — objective
// (1) of the paper. finish() and the per-wave telemetry snapshots share
// it, summing in identical order, so the last ObjectivePerWave entry
// equals the final Metrics.Objective bit-for-bit.
func (r *runState) objective(costs *grid.Costs) float64 {
	var obj float64
	for ni := range r.nets {
		n := &r.nets[ni]
		if n.tree == nil {
			continue
		}
		for _, st := range n.tree.Steps {
			obj += costs.ArcCost(st.Arc)
		}
		for k, d := range n.delays {
			obj += n.weights[k] * d
		}
	}
	return obj
}

package costdist

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (at reduced scale — raise -scale in cmd/benchtables
// for bigger runs) and measures the building blocks:
//
//	BenchmarkTableI / II       — instance comparison harness (Tables I/II)
//	BenchmarkTableIII          — chip inventory (Table III)
//	BenchmarkTableIV / V       — global routing flow (Tables IV/V)
//	BenchmarkFigure1/2/3       — figure regeneration
//	BenchmarkCDSolve*          — the core algorithm per instance size
//	BenchmarkCDSolveScratch*   — same, through a reusable solver arena
//	BenchmarkSolveBatch*       — batch API, sequential vs all cores
//	BenchmarkBaseline*         — topology+embedding baselines
//	BenchmarkCDScaling*        — Theorem 1 runtime scaling in n and t
//	BenchmarkAblation*         — §III enhancement on/off (the core.Options toggles)
//	BenchmarkECO               — cold re-route vs warm start vs warm start + repair
//	BenchmarkExactGoalVsDP     — goal-oriented exact solver vs the Dreyfus–Wagner DP
//	BenchmarkCheckpointCodec   — MarshalCheckpoint / UnmarshalCheckpoint on c1@0.01
//
// The end-to-end workloads the paper's claims are measured on live in
// bench/ (see bench/README.md); these are the component measurements.

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"costdist/internal/core"
	"costdist/internal/router"
	"costdist/internal/tables"
)

// benchInstances builds deterministic instances with the Lagrangean-like
// weight profile on a congested graph.
func benchInstances(nx int32, layers, sinks, n int, dbif float64) []*Instance {
	tech := DefaultTech(layers)
	g := NewGrid(nx, nx, BuildLayers(tech), tech.GCellUM)
	c := NewCosts(g)
	rng := rand.New(rand.NewPCG(11, 23))
	for i := range c.Mult {
		if rng.IntN(3) == 0 {
			c.Mult[i] = 1 + 6*rng.Float32()
		}
	}
	out := make([]*Instance, n)
	for i := range out {
		in := &Instance{
			G: g, C: c,
			Root: g.At(rng.Int32N(nx), rng.Int32N(nx), 0),
			DBif: dbif, Eta: 0.25, Seed: uint64(i),
		}
		for s := 0; s < sinks; s++ {
			w := 0.0005 * rng.Float64()
			if rng.IntN(5) == 0 {
				w = 0.01 + 0.05*rng.Float64()
			}
			in.Sinks = append(in.Sinks, Sink{V: g.At(rng.Int32N(nx), rng.Int32N(nx), 0), W: w})
		}
		in.Win = in.DefaultWindow(6)
		out[i] = in
	}
	return out
}

func benchSolve(b *testing.B, ins []*Instance, opt CDOptions) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveCD(ins[i%len(ins)], opt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSolveScratch is benchSolve through one reusable arena — the
// before/after pair for the scratch subsystem (compare
// BenchmarkCDSolveT16 vs BenchmarkCDSolveScratchT16 under -benchmem).
func benchSolveScratch(b *testing.B, ins []*Instance, opt CDOptions) {
	b.Helper()
	s := NewSolver()
	for _, in := range ins { // warm the arena to steady state
		if _, err := s.SolveCD(in, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SolveCD(ins[i%len(ins)], opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCDSolveT4(b *testing.B) {
	benchSolve(b, benchInstances(32, 5, 4, 32, 4), DefaultCDOptions())
}

func BenchmarkCDSolveT16(b *testing.B) {
	benchSolve(b, benchInstances(32, 5, 16, 16, 4), DefaultCDOptions())
}

func BenchmarkCDSolveT64(b *testing.B) {
	benchSolve(b, benchInstances(48, 5, 64, 8, 4), DefaultCDOptions())
}

func BenchmarkCDSolveScratchT4(b *testing.B) {
	benchSolveScratch(b, benchInstances(32, 5, 4, 32, 4), DefaultCDOptions())
}

func BenchmarkCDSolveScratchT16(b *testing.B) {
	benchSolveScratch(b, benchInstances(32, 5, 16, 16, 4), DefaultCDOptions())
}

func BenchmarkCDSolveScratchT64(b *testing.B) {
	benchSolveScratch(b, benchInstances(48, 5, 64, 8, 4), DefaultCDOptions())
}

// Batch throughput: one wave-sized batch of nets per iteration,
// sequentially and fanned across all cores.
func benchBatch(b *testing.B, workers int) {
	b.Helper()
	ins := benchInstances(32, 5, 16, 64, 4)
	opt := BatchOptions{Workers: workers, Router: DefaultRouterOptions()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := SolveBatch(ins, CD, opt)
		for j := range res {
			if res[j].Err != nil {
				b.Fatal(res[j].Err)
			}
		}
	}
}

func BenchmarkSolveBatchSeq(b *testing.B) { benchBatch(b, 1) }
func BenchmarkSolveBatchPar(b *testing.B) { benchBatch(b, 0) }

func benchBaseline(b *testing.B, m Method, sinks int) {
	b.Helper()
	ins := benchInstances(32, 5, sinks, 16, 4)
	opt := DefaultRouterOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(ins[i%len(ins)], m, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineL1T16(b *testing.B) { benchBaseline(b, L1, 16) }
func BenchmarkBaselineSLT16(b *testing.B) { benchBaseline(b, SL, 16) }
func BenchmarkBaselinePDT16(b *testing.B) { benchBaseline(b, PD, 16) }

// Theorem 1 scaling: runtime vs graph size at fixed t.
func BenchmarkCDScalingGrid(b *testing.B) {
	for _, nx := range []int32{16, 32, 64} {
		b.Run(fmt.Sprintf("nx%d", nx), func(b *testing.B) {
			benchSolve(b, benchInstances(nx, 5, 8, 8, 4), DefaultCDOptions())
		})
	}
}

// Theorem 1 scaling: runtime vs terminal count at fixed graph.
func BenchmarkCDScalingSinks(b *testing.B) {
	for _, t := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("t%d", t), func(b *testing.B) {
			opt := DefaultCDOptions()
			opt.Scratch = core.NewScratch()
			benchSolve(b, benchInstances(40, 5, t, 8, 4), opt)
			reportWork(b, opt.Scratch)
		})
	}
}

// reportWork reports the deterministic side of the ns/op beside it: the
// labels settled and the future-cost scans (core.Work) per op.
func reportWork(b *testing.B, scr *core.Scratch) {
	b.ReportMetric(float64(scr.Settled)/float64(b.N), "settled/op")
	b.ReportMetric(float64(scr.Estimated)/float64(b.N), "estimates/op")
}

// Ablations of the §III enhancements (quality deltas are reported by
// the tables harness; these measure runtime).
func BenchmarkAblation(b *testing.B) {
	variants := []struct {
		name string
		opt  core.Options
	}{
		{"default", core.DefaultOptions()},
		{"noDiscount", func() core.Options { o := core.DefaultOptions(); o.Discount = false; return o }()},
		{"flatHeap", func() core.Options { o := core.DefaultOptions(); o.FlatHeap = true; return o }()},
		{"noAStar", func() core.Options { o := core.DefaultOptions(); o.AStar = false; return o }()},
		{"noImprove", func() core.Options { o := core.DefaultOptions(); o.ImproveSteiner = false; return o }()},
		{"noRootBonus", func() core.Options { o := core.DefaultOptions(); o.RootBonus = false; return o }()},
		{"plainSectionII", core.Options{}},
	}
	ins := benchInstances(32, 5, 24, 12, 4)
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			// A private arena carries the work counters.
			opt := v.opt
			opt.Scratch = core.NewScratch()
			benchSolve(b, ins, opt)
			reportWork(b, opt.Scratch)
		})
	}
}

func BenchmarkEvaluate(b *testing.B) {
	ins := benchInstances(32, 5, 16, 8, 4)
	trs := make([]*Tree, len(ins))
	for i, in := range ins {
		tr, err := SolveCD(in, DefaultCDOptions())
		if err != nil {
			b.Fatal(err)
		}
		trs[i] = tr
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(ins[i%len(ins)], trs[i%len(ins)]); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCfg() tables.Config {
	return tables.Config{Scale: 0.0008, Chips: []int{0}, Waves: 2, Threads: 0, Seed: 7}
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := tables.InstanceComparison(benchCfg(), false)
		if err != nil {
			b.Fatal(err)
		}
		if rows[len(rows)-1].Instances == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := tables.InstanceComparison(benchCfg(), true)
		if err != nil {
			b.Fatal(err)
		}
		if rows[len(rows)-1].Instances == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := tables.TableIII(tables.Config{Scale: 1}); len(rows) != 8 {
			b.Fatal("bad table III")
		}
	}
}

func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := tables.GlobalRouting(benchCfg(), false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := tables.GlobalRouting(benchCfg(), true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := tables.Figure1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if svg := tables.Figure2(0.25); len(svg) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := tables.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouteChipCD(b *testing.B) {
	spec := ChipSuite(0.0012)[0]
	chip, err := GenerateChip(spec)
	if err != nil {
		b.Fatal(err)
	}
	opt := router.DefaultOptions()
	opt.Waves = 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RouteChip(chip, CD, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteChipCDIncremental is BenchmarkRouteChipCD with the
// dirty-net scheduler enabled: after wave 0 only invalidated nets are
// re-solved. Compare against BenchmarkRouteChipCD for the wave-level
// work avoidance; TestIncrementalSolveReduction gates the solve counters
// on a larger chip.
func BenchmarkRouteChipCDIncremental(b *testing.B) {
	spec := ChipSuite(0.0012)[0]
	chip, err := GenerateChip(spec)
	if err != nil {
		b.Fatal(err)
	}
	opt := router.DefaultOptions()
	opt.Waves = 2
	opt.Incremental = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RouteChip(chip, CD, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkECO is the three-leg ECO comparison on c1@0.01, 4 waves: the
// chip is routed once and checkpointed through the wire form (set-up,
// untimed), 5 % of its nets are perturbed, and the perturbed chip is
// then routed cold, warm-started without the repair rung and
// warm-started with it (RepairTol 0.25). RouteChipFrom consumes its
// state, so each warm iteration decodes a fresh one with the timer
// stopped. Every leg reports its final objective and overflow and its
// full solves and repairs; all four are deterministic.
//
//	go test -run '^$' -bench ECO -benchtime 3x .
func BenchmarkECO(b *testing.B) {
	chip, err := GenerateChip(ChipSuite(0.01)[0])
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultRouterOptions()
	opt.Waves = 4
	_, st, err := RouteChipCheckpoint(chip, CD, opt)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := MarshalCheckpoint(st)
	if err != nil {
		b.Fatal(err)
	}
	pert, _, err := PerturbChip(chip, 0.05, 9)
	if err != nil {
		b.Fatal(err)
	}
	for _, leg := range []struct {
		name      string
		warm      bool
		repairTol float64
	}{{"cold", false, -1}, {"warm", true, -1}, {"warm+repair", true, 0.25}} {
		b.Run(leg.name, func(b *testing.B) {
			opt := opt
			opt.RepairTol = leg.repairTol
			var m RouteMetrics
			for i := 0; i < b.N; i++ {
				var res *RouteResult
				var err error
				if leg.warm {
					b.StopTimer()
					st, uerr := UnmarshalCheckpoint(blob)
					if uerr != nil {
						b.Fatal(uerr)
					}
					b.StartTimer()
					res, _, err = RouteChipFrom(st, pert, CD, opt)
				} else {
					res, err = RouteChip(pert, CD, opt)
				}
				if err != nil {
					b.Fatal(err)
				}
				m = res.Metrics
			}
			b.ReportMetric(m.Objective, "objective")
			b.ReportMetric(m.Overflow, "overflow")
			b.ReportMetric(float64(m.NetsSolved), "solved")
			b.ReportMetric(float64(m.NetsRepaired), "repaired")
		})
	}
}

// BenchmarkExactGoalVsDP races the two exact solvers on 6-sink nets
// whose terminals sit in an 8×8 patch of a full 32×32×3 window
// (patchInstance). goal is the production pipeline: the CD tree's
// objective seeds the incumbent, and the CD solve is timed with it; it
// reports settled/op, the deterministic side of its ns/op. The solvers
// share no search code, so certified lower bounds that diverge mean one
// of them lost optimality, and the benchmark fails.
//
//	go test -run '^$' -bench ExactGoalVsDP -benchtime 3x .
func BenchmarkExactGoalVsDP(b *testing.B) {
	for seed := uint64(1); seed <= 3; seed++ {
		in := patchInstance(seed, 32, 8, 6, 20*float64(seed%2))
		b.Run(fmt.Sprintf("seed%d", seed), func(b *testing.B) {
			// NaN until its side runs: a -bench filter that skips one
			// side skips the cross-check too.
			dpLB, goalLB := math.NaN(), math.NaN()
			b.Run("dp", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := SolveExact(in)
					if err != nil {
						b.Fatal(err)
					}
					dpLB = res.LowerBound
				}
			})
			b.Run("goal", func(b *testing.B) {
				var settled int64
				for i := 0; i < b.N; i++ {
					cd, err := SolveCD(in, DefaultCDOptions())
					if err != nil {
						b.Fatal(err)
					}
					ev, err := Evaluate(in, cd)
					if err != nil {
						b.Fatal(err)
					}
					lim := DefaultExactGoalLimits()
					lim.UpperBound = ev.Total
					res, err := SolveExactGoalLimits(context.Background(), in, lim)
					if err != nil {
						b.Fatal(err)
					}
					goalLB = res.LowerBound
					settled += res.Goal.Settled
				}
				b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
			})
			if math.Abs(goalLB-dpLB) > 1e-7*(1+math.Abs(dpLB)) {
				b.Fatalf("certified lower bounds diverge: goal %v, dp %v", goalLB, dpLB)
			}
		})
	}
}

// BenchmarkCheckpointCodec measures the checkpoint codec on the c1@0.01
// cold checkpoint of BenchmarkECO's design (4 waves, 0.63 MB), the
// document the eco-warm workload decodes and re-encodes every op. MB/s
// is over the document's bytes.
//
//	go test -run '^$' -bench CheckpointCodec -benchmem .
func BenchmarkCheckpointCodec(b *testing.B) {
	st := coldCheckpoint(b)
	blob, err := MarshalCheckpoint(st)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MarshalCheckpoint(st); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := UnmarshalCheckpoint(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package costdist_test

import (
	"context"
	"fmt"
	"log"

	"costdist"
)

// ExampleSolveCD builds a small routing graph, defines one net with a
// timing-critical sink, and solves it with the paper's cost-distance
// algorithm.
func ExampleSolveCD() {
	tech := costdist.DefaultTech(6)
	g := costdist.NewGrid(32, 32, costdist.BuildLayers(tech), tech.GCellUM)

	in := &costdist.Instance{
		G: g, C: costdist.NewCosts(g),
		Root: g.At(3, 3, 0),
		Sinks: []costdist.Sink{
			{V: g.At(28, 6, 0), W: 0.05}, // timing-critical
			{V: g.At(24, 26, 0), W: 0.002},
			{V: g.At(6, 24, 0), W: 0}, // don't care
		},
		DBif: costdist.Dbif(tech),
		Eta:  0.25,
		Seed: 1,
	}
	in.Win = in.DefaultWindow(6)

	tr, err := costdist.SolveCD(in, costdist.DefaultCDOptions())
	if err != nil {
		log.Fatal(err)
	}
	ev, err := costdist.Evaluate(in, tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wire steps: %d\n", ev.WireSteps)
	fmt.Printf("vias: %d\n", ev.Vias)
	fmt.Printf("objective: %.3f\n", ev.Total)
	// Output:
	// wire steps: 70
	// vias: 13
	// objective: 150.187
}

// ExampleSolveExactGoal certifies a small net to optimality with the
// goal-oriented exact solver: a heuristic tree seeds the incumbent
// upper bound, the label-setting search then either proves it optimal
// or returns a strictly better tree together with the certified lower
// bound.
func ExampleSolveExactGoal() {
	tech := costdist.DefaultTech(3)
	g := costdist.NewGrid(16, 16, costdist.BuildLayers(tech), tech.GCellUM)

	in := &costdist.Instance{
		G: g, C: costdist.NewCosts(g),
		Root: g.At(2, 2, 0),
		Sinks: []costdist.Sink{
			{V: g.At(13, 4, 0), W: 0.04}, // timing-critical
			{V: g.At(11, 13, 0), W: 0.003},
			{V: g.At(4, 12, 0), W: 0.001},
		},
		DBif: costdist.Dbif(tech),
		Eta:  0.25,
		Seed: 1,
	}
	in.Win = g.FullWindow()

	// Seed the incumbent with the CD heuristic (the oracle adapter and
	// the differential harness do the same).
	cd, err := costdist.SolveCD(in, costdist.DefaultCDOptions())
	if err != nil {
		log.Fatal(err)
	}
	cdEv, err := costdist.Evaluate(in, cd)
	if err != nil {
		log.Fatal(err)
	}

	lim := costdist.DefaultExactGoalLimits()
	lim.UpperBound = cdEv.Total
	res, err := costdist.SolveExactGoalLimits(context.Background(), in, lim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("certified lower bound: %.3f\n", res.LowerBound)
	fmt.Printf("cd tree within certified gap: %t\n", cdEv.Total >= res.LowerBound)
	fmt.Printf("exact tree matches its certificate: %t\n",
		res.Total <= res.LowerBound*(1+1e-6))
	// Output:
	// certified lower bound: 62.211
	// cd tree within certified gap: true
	// exact tree matches its certificate: true
}

// ExampleParseInstance decodes the JSON schema consumed by
// cmd/cdsteiner into a solvable instance.
func ExampleParseInstance() {
	doc := []byte(`{
		"nx": 16, "ny": 16, "layers": 4,
		"root": [2, 2, 0],
		"sinks": [
			{"x": 12, "y": 4,  "l": 0, "w": 0.02},
			{"x": 5,  "y": 13, "l": 0, "w": 0.001}
		],
		"dbif": -1,
		"congestion": [
			{"x0": 6, "y0": 0, "x1": 9, "y1": 15, "l": 1, "mult": 4}
		]
	}`)
	in, err := costdist.ParseInstance(doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sinks: %d\n", len(in.Sinks))
	fmt.Printf("dbif derived: %t\n", in.DBif > 0)

	tr, err := costdist.SolveCD(in, costdist.DefaultCDOptions())
	if err != nil {
		log.Fatal(err)
	}
	out, err := costdist.MarshalTree(in, tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encoded: %t\n", len(out) > 0)
	// Output:
	// sinks: 2
	// dbif derived: true
	// encoded: true
}

// ExampleSolveBatch solves a batch of independent instances across all
// CPU cores with one reusable solver arena per worker. Results are
// bit-identical to a sequential Solve loop, in input order.
func ExampleSolveBatch() {
	tech := costdist.DefaultTech(5)
	g := costdist.NewGrid(24, 24, costdist.BuildLayers(tech), tech.GCellUM)
	costs := costdist.NewCosts(g)

	ins := make([]*costdist.Instance, 4)
	for i := range ins {
		in := &costdist.Instance{
			G: g, C: costs,
			Root: g.At(2, int32(2+5*i), 0),
			Sinks: []costdist.Sink{
				{V: g.At(20, int32(3+4*i), 0), W: 0.01},
				{V: g.At(12, 20, 0), W: 0.001},
			},
			DBif: costdist.Dbif(tech),
			Eta:  0.25,
			Seed: uint64(i),
		}
		in.Win = in.DefaultWindow(6)
		ins[i] = in
	}

	results := costdist.SolveBatch(ins, costdist.CD, costdist.DefaultBatchOptions())
	for i, r := range results {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		fmt.Printf("net %d: objective %.3f\n", i, r.Eval.Total)
	}
	// Output:
	// net 0: objective 66.503
	// net 1: objective 60.322
	// net 2: objective 56.747
	// net 3: objective 53.173
}

// ExampleRouteChip_incremental routes a small synthetic chip with the
// incremental engine: wave 0 solves every net, later waves re-solve only
// nets invalidated by congestion or timing price changes (the same flow
// as `grroute -incremental`).
func ExampleRouteChip_incremental() {
	spec := costdist.ChipSuite(0.002)[0] // c1, scaled down for the example
	chip, err := costdist.GenerateChip(spec)
	if err != nil {
		log.Fatal(err)
	}

	opt := costdist.DefaultRouterOptions()
	opt.Threads = 2
	opt.Incremental = true

	res, err := costdist.RouteChip(chip, costdist.CD, opt)
	if err != nil {
		log.Fatal(err)
	}
	m := res.Metrics
	fmt.Printf("waves: %d\n", len(m.SolvedPerWave))
	fmt.Printf("wave 0 solves every net: %t\n", m.SolvedPerWave[0] == len(chip.NL.Nets))
	fmt.Printf("later waves skip clean nets: %t\n", m.NetsSkipped > 0)
	fmt.Printf("counters add up: %t\n",
		m.NetsSolved+m.NetsSkipped == int64(opt.Waves*len(chip.NL.Nets)))
	// Output:
	// waves: 4
	// wave 0 solves every net: true
	// later waves skip clean nets: true
	// counters add up: true
}

// ExampleRouteChipFrom shows ECO-style warm-started rerouting: route a
// chip and checkpoint the run, perturb a few nets, then reroute from
// the checkpoint — only the nets the perturbation invalidated are
// re-solved, and an unperturbed warm start solves nothing at all.
func ExampleRouteChipFrom() {
	spec := costdist.ChipSuite(0.002)[0] // c1, scaled down for the example
	chip, err := costdist.GenerateChip(spec)
	if err != nil {
		log.Fatal(err)
	}
	opt := costdist.DefaultRouterOptions()
	opt.Waves = 2

	// Cold route, keeping the externalized state. The result is
	// bit-identical to plain RouteChip.
	cold, state, err := costdist.RouteChipCheckpoint(chip, costdist.CD, opt)
	if err != nil {
		log.Fatal(err)
	}

	// The state survives serialization: a versioned, byte-stable wire
	// form (this is what the service retains per route job).
	blob, err := costdist.MarshalCheckpoint(state)
	if err != nil {
		log.Fatal(err)
	}
	state, err = costdist.UnmarshalCheckpoint(blob)
	if err != nil {
		log.Fatal(err)
	}

	// An ECO: 5% of the nets get one sink cell nudged.
	pert, changed, err := costdist.PerturbChip(chip, 0.05, 9)
	if err != nil {
		log.Fatal(err)
	}

	warm, _, err := costdist.RouteChipFrom(state, pert, costdist.CD, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("perturbation touched ≥ 1 net: %t\n", changed >= 1)
	fmt.Printf("warm start reused work: %t\n", warm.Metrics.NetsSkipped > 0)
	fmt.Printf("fewer solves than cold: %t\n", warm.Metrics.NetsSolved < cold.Metrics.NetsSolved)

	// Zero perturbation: the warm start is a no-op reproducing the
	// cold objective exactly.
	noop, _, err := costdist.RouteChipFrom(state, chip, costdist.CD, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unperturbed warm start solves nothing: %t\n", noop.Metrics.NetsSolved == 0)
	fmt.Printf("and reproduces the objective: %t\n", noop.Metrics.Objective == cold.Metrics.Objective)
	// Output:
	// perturbation touched ≥ 1 net: true
	// warm start reused work: true
	// fewer solves than cold: true
	// unperturbed warm start solves nothing: true
	// and reproduces the objective: true
}

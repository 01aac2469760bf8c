// Command grroute runs timing-constrained global routing on one chip of
// the synthetic c1..c8 suite (paper Table III) with a selectable Steiner
// tree oracle and prints the Tables IV/V metric row.
//
// Usage (grroute -h lists every -oracle name):
//
//	grroute -chip c3 -oracle cd -scale 0.01 -waves 4 [-dbif=0] [-workers 16] [-incremental [-repairtol 0.25]]
//	grroute -chip c1 -scale 0.05 -cpuprofile cpu.pprof -memprofile mem.pprof
//	grroute -chip c1 -trace route.json   # Chrome trace_event timeline of the run
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"costdist"
	"costdist/internal/cliutil"
)

func main() {
	chipName := flag.String("chip", "c1", "chip name c1..c8")
	oracleName := flag.String("oracle", "cd", "oracle or driver: "+strings.Join(costdist.MethodNames(), ", "))
	scale := flag.Float64("scale", 0.01, "net count scale vs the paper (1.0 = full)")
	waves := flag.Int("waves", 4, "rip-up-and-reroute waves (≥ 1)")
	workers := flag.Int("workers", 0, "parallel routing workers, one solver arena each (0 = all cores)")
	dbif := flag.Float64("dbif", 0, "bifurcation penalty in ps, ≥ 0 (0: off; unset: the technology's)")
	incremental := flag.Bool("incremental", false, "dirty-net scheduling: re-solve only nets invalidated by price changes after wave 0")
	incTol := flag.Float64("inctol", 0, "incremental invalidation tolerance (relative, ≥ 0; 0 invalidates on any change; unset: router default)")
	repairTol := flag.Float64("repairtol", -1, "topology-repair escalation tolerance (needs -incremental): ≥ 0 re-embeds every dirty net that has a cached tree on its topology before a full re-solve, < 0 disables the rung (default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the routing run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the routing run to this file")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON timeline of the routing run to this file (open in chrome://tracing or Perfetto)")
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	spec, ok := costdist.ChipSpecByName(*chipName, *scale)
	if !ok {
		cliutil.FatalUsage("grroute", fmt.Errorf("unknown chip %q (want c1..c8)", *chipName))
	}
	m := cliutil.MustMethod("grroute", *oracleName)
	if set["dbif"] && !(*dbif >= 0) {
		cliutil.FatalUsage("grroute", fmt.Errorf("-dbif %g is negative; leave it unset for the technology's penalty", *dbif))
	}
	if *waves < 1 {
		cliutil.FatalUsage("grroute", fmt.Errorf("-waves %d: a run needs at least 1 wave", *waves))
	}
	if *repairTol >= 0 && !*incremental {
		cliutil.FatalUsage("grroute", fmt.Errorf("-repairtol %g needs -incremental: the repair rung only runs inside the dirty-net scheduler", *repairTol))
	}

	chip, err := costdist.GenerateChip(spec)
	if err != nil {
		cliutil.Fatal("grroute", err)
	}
	if set["dbif"] {
		chip.DBif = *dbif
	}
	opt := costdist.DefaultRouterOptions()
	opt.Waves = *waves
	opt.Threads = *workers
	opt.Incremental = *incremental
	if set["inctol"] {
		opt.IncrementalTol = *incTol
	}
	// The flag default (-1) equals the router default, so unconditional
	// assignment preserves unset semantics without a flag.Visit check.
	opt.RepairTol = *repairTol
	var rec *costdist.Recorder
	if *traceFile != "" {
		rec = costdist.NewRecorder()
		opt.Recorder = rec
	}

	fmt.Printf("chip %s: %d nets, %d layers, clk %.0f ps, dbif %.3f ps\n",
		spec.Name, spec.NNets, spec.Layers, chip.ClkPeriod, chip.DBif)
	prof := cliutil.StartProfiles("grroute", *cpuprofile, *memprofile)
	res, err := costdist.RouteChip(chip, m, opt)
	prof.Stop()
	if err != nil {
		cliutil.Fatal("grroute", err)
	}
	mt := res.Metrics
	fmt.Printf("%-5s %-9s WS %8.0f ps  TNS %11.0f ps  ACE4 %6.2f%%  WL %9.4f m  Vias %9d  obj %.0f  %s\n",
		spec.Name, m, mt.WS, mt.TNS, mt.ACE4, mt.WLm, mt.Vias, mt.Objective, mt.Walltime.Round(1e6))
	if m == costdist.Portfolio {
		fmt.Printf("oracle solves: %v\n", mt.SolvesByOracle)
	}
	if *incremental {
		fmt.Printf("incremental: %d solved, %d skipped (%.1f%% cache hits); per wave solved %v skipped %v delta %v\n",
			mt.NetsSolved, mt.NetsSkipped,
			100*float64(mt.NetsSkipped)/float64(mt.NetsSolved+mt.NetsSkipped+mt.NetsRepaired),
			mt.SolvedPerWave, mt.SkippedPerWave, mt.DeltaSegsPerWave)
	}
	if *repairTol >= 0 {
		fmt.Printf("repair tier: %d repaired, %d escalated; per wave repaired %v escalated %v\n",
			mt.NetsRepaired, mt.RepairEscalated, mt.RepairedPerWave, mt.EscalatedPerWave)
	}
	if rec != nil {
		f, err := os.Create(*traceFile)
		if err != nil {
			cliutil.Fatal("grroute", err)
		}
		if err := costdist.WriteTrace(f, rec); err != nil {
			cliutil.Fatal("grroute", err)
		}
		if err := f.Close(); err != nil {
			cliutil.Fatal("grroute", err)
		}
		fmt.Printf("trace: %d spans to %s; per-wave convergence objective %v overflow %v\n",
			len(rec.Spans()), *traceFile, mt.ObjectivePerWave, mt.OverflowPerWave)
	}
}

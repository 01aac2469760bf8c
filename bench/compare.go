package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// exactCounts are the deterministic numbers two runs of one seed on one
// code must agree on to the last digit ("objective" is the end-to-end
// metric, the rest are per-layer counts).
var exactCounts = []string{
	"objective", "router.overflow", "core.solve.count", "reembed.attempts", "reembed.adopted",
	"router.nets_skipped", "io.checkpoint_mb", "service.cache_hits",
}

func readSuite(path string) (*suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suite
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareMain implements `bench compare a.json b.json`: a is the
// parent, b the change. One row per (workload, end-to-end metric):
//
//	ok          b is not worse than a by more than the metric's bound
//	regressed   it is
//	unresolved  either run's own repeat spread is wider than the bound,
//	            so the pair cannot show a change of that size
//
// plus exact-equality rows for the deterministic counts when both runs
// used the same seed. The exit code is 1 on any `regressed` or unequal
// count, 2 on a usage error.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare a.json b.json")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	a, err := readSuite(args[0])
	if err == nil {
		var b *suite
		if b, err = readSuite(args[1]); err == nil {
			return compareSuites(spec, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, err)
	return 2
}

func compareSuites(spec *benchSpec, a, b *suite) int {
	bad := 0
	for _, ra := range a.Runs {
		var rb *record
		for i := range b.Runs {
			if b.Runs[i].Workload == ra.Workload {
				rb = &b.Runs[i]
			}
		}
		if rb == nil {
			fmt.Printf("%-14s missing from the second file\n", ra.Workload)
			bad++
			continue
		}
		for _, d := range spec.EndToEnd {
			va, vb := ra.EndToEnd[d.Name], rb.EndToEnd[d.Name]
			worse := 0.0
			if va != 0 {
				worse = (vb - va) / va
				if d.Better == "higher" {
					worse = -worse
				}
			}
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "regressed"
				bad++
			case d.Name == "wall_s" && (ra.OpWallS.spread() > d.Bound || rb.OpWallS.spread() > d.Bound):
				verdict = "unresolved"
			}
			fmt.Printf("%-14s %-14s %14.6g -> %-14.6g %+7.2f%% (bound %.0f%%)  %s\n",
				ra.Workload, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
		if ra.Seed != rb.Seed {
			continue
		}
		for _, name := range exactCounts {
			va, oka := ra.EndToEnd[name]
			vb, okb := rb.EndToEnd[name]
			if !oka {
				va, oka = ra.PerLayer[name]
				vb, okb = rb.PerLayer[name]
			}
			if !oka || !okb {
				continue // an untraced record has no per-layer counts
			}
			verdict := "equal"
			if va != vb {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Printf("%-14s %-22s %14.10g == %-14.10g %s\n", ra.Workload, name, va, vb, verdict)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

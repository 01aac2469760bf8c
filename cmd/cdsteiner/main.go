// Command cdsteiner solves a single cost-distance Steiner tree instance
// read from a JSON file (see costdist.InstanceJSON for the schema) with
// any oracle or driver, prints the objective decomposition and
// optionally writes the tree as compact JSON and/or SVG.
//
// Usage (cdsteiner -h lists every -method name):
//
//	cdsteiner -in instance.json [-method cd] [-out tree.json] [-svg tree.svg]
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
	inPath := flag.String("in", "", "instance JSON file (required)")
	method := flag.String("method", "CD", "oracle or driver: "+strings.Join(costdist.MethodNames(), ", ")+" (l1 is an alias of rsmt)")
	outPath := flag.String("out", "", "write the solved tree here as compact JSON (jq . pretty-prints it)")
	svgPath := flag.String("svg", "", "write tree SVG here")
	compare := flag.Bool("compare", false, "run all four algorithms and print a comparison")
	flag.Parse()

	if *inPath == "" {
		flag.Usage()
		os.Exit(cliutil.ExitUsage)
	}
	data, err := os.ReadFile(*inPath)
	if err != nil {
		cliutil.Fatal("cdsteiner", err)
	}
	in, err := costdist.ParseInstance(data)
	if err != nil {
		cliutil.Fatal("cdsteiner", err)
	}

	if *compare {
		fmt.Printf("%-4s %12s %12s %12s %6s %6s\n", "alg", "total", "congestion", "delay", "wires", "vias")
		for _, name := range []string{"L1", "SL", "PD", "CD"} {
			cm, _ := costdist.MethodByName(name)
			tr, err := costdist.Solve(in, cm, costdist.DefaultRouterOptions())
			if err != nil {
				cliutil.Fatal("cdsteiner", fmt.Errorf("%s: %w", name, err))
			}
			ev, err := costdist.Evaluate(in, tr)
			if err != nil {
				cliutil.Fatal("cdsteiner", err)
			}
			fmt.Printf("%-4s %12.3f %12.3f %12.3f %6d %6d\n",
				name, ev.Total, ev.CongCost, ev.DelayCost, ev.WireSteps, ev.Vias)
		}
		return
	}

	m := cliutil.MustMethod("cdsteiner", *method)
	tr, err := costdist.Solve(in, m, costdist.DefaultRouterOptions())
	if err != nil {
		cliutil.Fatal("cdsteiner", err)
	}
	ev, err := costdist.Evaluate(in, tr)
	if err != nil {
		cliutil.Fatal("cdsteiner", err)
	}
	fmt.Printf("method      %s\n", strings.ToUpper(*method))
	fmt.Printf("objective   %.4f\n", ev.Total)
	fmt.Printf("congestion  %.4f\n", ev.CongCost)
	fmt.Printf("delay cost  %.4f\n", ev.DelayCost)
	fmt.Printf("wires/vias  %d/%d\n", ev.WireSteps, ev.Vias)
	for i, d := range ev.SinkDelay {
		fmt.Printf("sink %-3d    %.2f ps (w=%.4g)\n", i, d, in.Sinks[i].W)
	}
	if *outPath != "" {
		out, err := costdist.MarshalTree(in, tr)
		if err != nil {
			cliutil.Fatal("cdsteiner", err)
		}
		if err := os.WriteFile(*outPath, out, 0o644); err != nil {
			cliutil.Fatal("cdsteiner", err)
		}
	}
	if *svgPath != "" {
		if err := os.WriteFile(*svgPath, []byte(costdist.RenderTree(in, tr, 16)), 0o644); err != nil {
			cliutil.Fatal("cdsteiner", err)
		}
	}
}

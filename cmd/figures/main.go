// Command figures regenerates the paper's figures as SVG files:
//
//	figures -dir out/
//
// writes fig1-pd.svg and fig1-cd.svg (bifurcations on a critical path,
// paper Figure 1), fig2.svg (repeater chain / λ split, Figure 2) and
// fig3-iter*.svg (the course of the algorithm on 5 sinks, Figure 3).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"costdist/internal/cliutil"
	"costdist/internal/tables"
)

func main() {
	dir := flag.String("dir", ".", "output directory")
	eta := flag.Float64("eta", 0.25, "penalty share η for figure 2")
	flag.Parse()

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		cliutil.Fatal("figures", err)
	}
	write := func(name, content string) {
		path := filepath.Join(*dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			cliutil.Fatal("figures", err)
		}
		fmt.Println("wrote", path)
	}

	pdSVG, cdSVG, pdBifs, cdBifs, err := tables.Figure1()
	if err != nil {
		cliutil.Fatal("figures", err)
	}
	write("fig1-pd.svg", pdSVG)
	write("fig1-cd.svg", cdSVG)
	fmt.Printf("figure 1: bifurcations on the critical path: PD=%d, CD=%d\n", pdBifs, cdBifs)

	write("fig2.svg", tables.Figure2(*eta))

	frames, events, err := tables.Figure3()
	if err != nil {
		cliutil.Fatal("figures", err)
	}
	for i, f := range frames {
		write(fmt.Sprintf("fig3-iter%d.svg", i), f)
	}
	fmt.Printf("figure 3: %d iterations, final merge to root: %v\n", len(events), events[len(events)-1].ToRoot)
}

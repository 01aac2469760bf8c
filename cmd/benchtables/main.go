// Command benchtables regenerates the paper's tables on the synthetic
// chip suite:
//
//	benchtables -table 1 -scale 0.005    # Table I  (instance comparison, dbif = 0)
//	benchtables -table 2                 # Table II (instance comparison, dbif > 0)
//	benchtables -table 3                 # Table III (chip inventory)
//	benchtables -table 4                 # Table IV (global routing, dbif = 0)
//	benchtables -table 5                 # Table V  (global routing, dbif > 0)
//	benchtables -table all               # everything
//
// Larger -scale values approach the paper's instance counts at the price
// of runtime; -chips restricts the suite (e.g. -chips 1,2,3).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"costdist/internal/cliutil"
	"costdist/internal/tables"
)

func main() {
	table := flag.String("table", "all", "which table: 1..5, ablation, or all")
	scale := flag.Float64("scale", 0.005, "net count scale vs the paper")
	waves := flag.Int("waves", 3, "routing waves")
	threads := flag.Int("threads", 0, "routing workers (0 = all cores)")
	seed := flag.Uint64("seed", 7, "random seed")
	chips := flag.String("chips", "", "comma-separated chip indices 1..8 (default all)")
	flag.Parse()

	cfg := tables.Config{Scale: *scale, Waves: *waves, Threads: *threads, Seed: *seed}
	if *chips != "" {
		for _, part := range strings.Split(*chips, ",") {
			idx, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || idx < 1 || idx > 8 {
				cliutil.Fatal("benchtables", fmt.Errorf("bad chip index %q", part))
			}
			cfg.Chips = append(cfg.Chips, idx-1)
		}
	}

	if err := tables.Print(os.Stdout, cfg, *table); err != nil {
		cliutil.Fatal("benchtables", err)
	}
}

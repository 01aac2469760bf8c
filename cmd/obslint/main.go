// Command obslint validates the repository's observability surfaces so
// CI can smoke-check them without external tooling:
//
//	curl -s localhost:8080/metrics | obslint            # Prometheus text lint
//	obslint -trace route.json                           # Chrome trace_event check
//
// The default mode reads a Prometheus text-format exposition from stdin
// and verifies the invariants scrapers rely on: every sample has a
// preceding # TYPE, histogram families carry _sum/_count and a +Inf
// bucket per label set, no duplicate series, numeric values. -trace
// instead validates a trace file written by costdist.WriteTrace, such as
// grroute -trace. Exit status 0 means clean; violations print to stderr and
// exit 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"costdist"
	"costdist/internal/cliutil"
	"costdist/internal/obs"
)

func main() {
	traceFile := flag.String("trace", "", "validate this Chrome trace_event JSON file instead of linting stdin as Prometheus text")
	flag.Parse()

	if *traceFile != "" {
		data, err := os.ReadFile(*traceFile)
		if err != nil {
			cliutil.Fatal("obslint", err)
		}
		if err := costdist.ValidateTrace(data); err != nil {
			cliutil.Fatal("obslint", fmt.Errorf("%s: %v", *traceFile, err))
		}
		fmt.Printf("obslint: %s is a valid trace_event document\n", *traceFile)
		return
	}

	data, err := io.ReadAll(os.Stdin)
	if err != nil {
		cliutil.Fatal("obslint", err)
	}
	if len(data) == 0 {
		cliutil.Fatal("obslint", fmt.Errorf("empty input on stdin (pipe a /metrics body, or use -trace)"))
	}
	if err := obs.LintPromText(data); err != nil {
		cliutil.Fatal("obslint", err)
	}
	fmt.Println("obslint: metrics exposition is well-formed")
}

// Command bench is this repository's one benchmark: four named
// workloads, end-to-end metrics measured with tracing off, and a traced
// pass that attributes each operation's time to layers. Names, units
// and regression bounds live in BENCHMARK.json at the repository root;
// README.md in this directory says why each workload exists and which
// end-to-end number each layer metric should move.
//
//	go run ./bench -workload cold-route -seed 1 -seconds 12 -trace 0
//	go run ./bench -all [-seed N] [-json out.json]
//	go run ./bench compare a.json b.json
//
// Layers are measured from outside: the harness times calls into each
// layer's public functions and reads what the program already exposes
// (RouteMetrics, RouterOptions.Recorder, RouterOptions.CaptureWave,
// GET /metrics). No file outside this directory carries a counter or a
// span for it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef and benchSpec mirror BENCHMARK.json, the single source of
// metric names, units and bounds: the harness emits exactly the names
// listed there and refuses to set any other.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or its
// parent (go test runs with the package directory as cwd).
func loadSpec() (*benchSpec, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("bench: BENCHMARK.json not found (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("bench: parsing BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) def(list []metricDef, name string) (metricDef, bool) {
	for _, d := range list {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// sizes are the workload dimensions. defaultSizes is the benchmark;
// bench_test.go shrinks them. They were cut from the issue's probe
// sizes (c1@0.03, 3.5 min suite) to fit the driver's budget of 92 runs
// in 3420 s: repeats first, then chip scale — no workload was dropped.
type sizes struct {
	ChipScale    float64 `json:"chip_scale"`     // c1 net-count scale for both route workloads
	EcoFrac      float64 `json:"eco_frac"`       // share of nets the ECO perturbs (eco-warm)
	RepairTol    float64 `json:"repair_tol"`     // RouterOptions.RepairTol of the warm route
	BatchGrid    int32   `json:"batch_grid"`     // oracle-batch grid side (8 layers)
	BatchWide    [3]int  `json:"batch_wide"`     // wide nets with 8/32/96 sinks
	BatchLocal   [3]int  `json:"batch_local"`    // local nets with 8/32/96 sinks
	Requests     int     `json:"requests"`       // timed POST /v1/solve per service pass
	RequestPart  int     `json:"request_part"`   // requests per timed part of a pass
	Warmup       int     `json:"warmup"`         // untimed first-seen requests before each pass
	SetupRepeat  int     `json:"setup_repeat"`   // set-ups before the first op
	SetupBudgetS float64 `json:"setup_budget_s"` // more set-ups run between the ops until this much time went into them
	ProbeNets    int     `json:"probe_nets"`     // cap on instances a layer probe runs
}

func defaultSizes() sizes {
	return sizes{
		ChipScale: 0.01, EcoFrac: 0.05, RepairTol: 0.25,
		BatchGrid: 128, BatchWide: [3]int{5, 3, 2}, BatchLocal: [3]int{24, 24, 24},
		Requests: 600, RequestPart: 150, Warmup: 100, SetupRepeat: 3, SetupBudgetS: 4, ProbeNets: 400,
	}
}

// config is one workload run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	threads  int
	sz       sizes
	traceDir string // where <workload>.trace.json goes; "" keeps it in memory only
}

func defaultThreads() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// record is everything one workload run measured; -json writes it and
// -all collects one per workload.
type record struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Threads      int                `json:"threads"`
	Clients      int                `json:"clients"`
	Seconds      float64            `json:"seconds"`
	Sizes        sizes              `json:"sizes"`
	Ops          int                `json:"ops"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Correct      bool               `json:"correct"`
	OpWallS      distSummary        `json:"op_wall_s"`     // at nominal host speed; wall_s is its median
	OpWallRawS   distSummary        `json:"op_wall_raw_s"` // as the clock read
	HostSlowdown float64            `json:"host_slowdown"` // median over the ops of calibration ÷ nominal
	CalThreads   int                `json:"cal_threads"`
	EndToEnd     map[string]float64 `json:"end_to_end"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
	Digest       string             `json:"result_sha256"`
	Attribution  []attrRow          `json:"attribution,omitempty"`
	Warnings     []string           `json:"warnings,omitempty"`
	TraceFile    string             `json:"trace_file,omitempty"`
}

// suite is the -all / -json document compare reads.
type suite struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	CPUModel   string   `json:"cpu_model"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Seed       uint64   `json:"seed"`
	Runs       []record `json:"runs"`
}

func newSuite(seed uint64) *suite {
	return &suite{
		Commit: gitCommit(), GoVersion: runtime.Version(), CPUModel: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed,
	}
}

// gitCommit and cpuModel are best-effort labels: the driver's checkout
// is not a git repository and /proc may be absent.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "run one workload: cold-route, eco-warm, oracle-batch, service-solve")
		all      = flag.Bool("all", false, "run the four workloads, one child process each, traced")
		seed     = flag.Uint64("seed", 1, "workload seed (1 = development, 2 = held out)")
		seconds  = flag.Float64("seconds", 0, "seconds of untraced measurement (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 adds the traced pass and layer probes and prints the per-layer metrics")
		threads  = flag.Int("threads", defaultThreads(), "router threads, service shards and clients; at most nproc")
		jsonOut  = flag.String("json", "", "also write the full record(s) to this file")
	)
	flag.Parse()
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *threads < 1 || *threads > runtime.NumCPU() {
		fatal(fmt.Errorf("bench: threads/clients = %d, host has %d CPUs; refusing to oversubscribe", *threads, runtime.NumCPU()))
	}
	switch {
	case *all:
		if err := runAll(spec, *seed, *seconds, *threads, *jsonOut); err != nil {
			fatal(err)
		}
	case *workload != "":
		cfg := config{
			workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
			threads: *threads, sz: defaultSizes(), traceDir: filepath.Join("bench", "out"),
		}
		rec, err := runWorkload(spec, cfg)
		if err != nil {
			fatal(err)
		}
		printRecord(spec, rec)
		if *jsonOut != "" {
			s := newSuite(*seed)
			s.Runs = []record{*rec}
			if err := writeJSON(*jsonOut, s); err != nil {
				fatal(err)
			}
		}
		// The contract line: last on stdout, end-to-end metrics untraced,
		// per-layer metrics traced.
		fmt.Println(contractLine(spec, rec, cfg.trace))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// contractLine renders the driver's result object. Every metric of the
// requested kind is present: a layer a workload does not exercise
// reports 0, which is itself the prediction ("reembed does nothing on
// cold-route").
func contractLine(spec *benchSpec, rec *record, traced bool) string {
	defs, vals := spec.EndToEnd, rec.EndToEnd
	if traced {
		defs, vals = spec.PerLayer, rec.PerLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]mv{}}
	for _, d := range defs {
		out.Metrics[d.Name] = mv{vals[d.Name], d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	return string(b)
}

// runAll runs each workload in its own process (so heap, GC state and
// warmed arenas never leak between workloads), traced, and prints every
// metric by name.
func runAll(spec *benchSpec, seed uint64, seconds float64, threads int, jsonOut string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	outDir := filepath.Join("bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	st := newSuite(seed)
	for _, w := range spec.Workloads {
		part := filepath.Join(outDir, w.Name+".json")
		cmd := exec.Command(exe, "-workload", w.Name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", "1", "-threads", fmt.Sprint(threads), "-json", part)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("bench: workload %s: %w", w.Name, err)
		}
		data, err := os.ReadFile(part)
		if err != nil {
			return err
		}
		var one suite
		if err := json.Unmarshal(data, &one); err != nil {
			return err
		}
		st.Runs = append(st.Runs, one.Runs...)
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, st); err != nil {
			return err
		}
	}
	for _, r := range st.Runs {
		if !r.Correct {
			return errors.New("bench: at least one workload failed its output checks")
		}
	}
	return nil
}

// printRecord prints every metric by name with its unit, the repeat
// spread beside wall_s, the guard-rail warnings and the attribution
// table of the traced op.
func printRecord(spec *benchSpec, rec *record) {
	fmt.Printf("== %s  seed=%d threads=%d clients=%d ops=%d attempted=%d failed=%d correct=%v\n",
		rec.Workload, rec.Seed, rec.Threads, rec.Clients, rec.Ops, rec.Attempted, rec.Failed, rec.Correct)
	for _, d := range []struct {
		label string
		s     distSummary
	}{{"op wall s, nominal host", rec.OpWallS}, {"op wall s, as clocked  ", rec.OpWallRawS}} {
		fmt.Printf("   %s: n=%d min=%.4f q1=%.4f median=%.4f q3=%.4f max=%.4f\n",
			d.label, d.s.N, d.s.Min, d.s.Q1, d.s.Median, d.s.Q3, d.s.Max)
	}
	fmt.Printf("   host slowdown %.3f (calibration on %d goroutines ÷ nominal %.3f s, median over the ops)\n",
		rec.HostSlowdown, rec.CalThreads, calNominalS)
	for _, d := range spec.EndToEnd {
		fmt.Printf("   %-36s %14.6g %s\n", d.Name, rec.EndToEnd[d.Name], d.Unit)
	}
	if rec.PerLayer != nil {
		names := make([]string, 0, len(rec.PerLayer))
		for n := range rec.PerLayer {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			d, _ := spec.def(spec.PerLayer, n)
			fmt.Printf("   %-36s %14.6g %s\n", n, rec.PerLayer[n], d.Unit)
		}
	}
	if len(rec.Attribution) > 0 {
		fmt.Println("   attribution of the traced op (rows without indent sum to its wall):")
		for _, r := range rec.Attribution {
			fmt.Printf("     %-40s %10.4f s  %s\n", r.Name, r.Seconds, r.Note)
		}
	}
	for _, w := range rec.Warnings {
		fmt.Printf("   WARNING %s\n", w)
	}
}

package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"testing"

	"costdist"
)

// nameRE is the contract's rule for metric and workload names.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// testSizes is the shrunken suite: c1@0.005, 24 batch instances, 60
// requests, one set-up — a few seconds in all.
func testSizes() sizes {
	return sizes{
		ChipScale: 0.005, EcoFrac: 0.05, RepairTol: 0.25,
		BatchGrid: 128, BatchWide: [3]int{1, 1, 1}, BatchLocal: [3]int{7, 7, 7},
		Requests: 60, RequestPart: 20, Warmup: 60, SetupRepeat: 1, ProbeNets: 40,
	}
}

func testConfig(t *testing.T, workload string) config {
	return config{
		workload: workload, seed: 1, seconds: 0.01, trace: true,
		threads: min(2, runtime.NumCPU()), sz: testSizes(), traceDir: t.TempDir(),
	}
}

func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSuiteEmitsBenchmarkJSON runs every workload of BENCHMARK.json,
// traced, and checks that the emitted names are exactly the listed
// ones, that every listed layer metric is measured by some workload,
// that spans nest with non-negative self time, and that each
// attribution table sums to its traced op's wall.
func TestSuiteEmitsBenchmarkJSON(t *testing.T) {
	spec := mustSpec(t)
	for _, list := range [][]metricDef{spec.EndToEnd, spec.PerLayer} {
		for _, d := range list {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q does not match %v", d.Name, nameRE)
			}
		}
	}
	if len(spec.Workloads) != 4 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want 4", len(spec.Workloads))
	}

	measured := map[string]bool{}
	layers := map[string]map[string]float64{}
	for _, w := range spec.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q does not match %v", w.Name, nameRE)
		}
		cfg := testConfig(t, w.Name)
		rec, err := runWorkload(spec, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, rec.Correct, rec.Attempted, rec.Failed)
		}
		sameNames(t, w.Name+" end-to-end", spec.EndToEnd, rec.EndToEnd)
		sameNames(t, w.Name+" per-layer", spec.PerLayer, rec.PerLayer)
		for name, v := range rec.EndToEnd {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end %s = %v, must be a positive number", w.Name, name, v)
			}
		}
		for name, v := range rec.PerLayer {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.Name, name, v)
			}
			if v != 0 {
				measured[name] = true
			}
		}
		layers[w.Name] = rec.PerLayer
		// Both contract lines must be valid JSON objects.
		for _, traced := range []bool{false, true} {
			var line map[string]any
			if err := json.Unmarshal([]byte(contractLine(spec, rec, traced)), &line); err != nil {
				t.Errorf("%s: contract line: %v", w.Name, err)
			}
		}
		checkTrace(t, rec)
		checkAttribution(t, rec)
	}

	// Counts that are legitimately zero on a healthy run.
	for _, name := range []string{"obs.dropped", "service.queue_rejects"} {
		measured[name] = true
	}
	for _, d := range spec.PerLayer {
		if !measured[d.Name] {
			t.Errorf("per-layer metric %s is listed in BENCHMARK.json but no workload measures it", d.Name)
		}
	}

	// The workloads separate the layers as designed.
	if v := layers["cold-route"]["reembed.busy_s"]; v != 0 {
		t.Errorf("cold-route reembed.busy_s = %v, want 0", v)
	}
	if v := layers["eco-warm"]["reembed.attempts"]; v == 0 {
		t.Errorf("eco-warm made no repair attempt")
	}
	if b := layers["oracle-batch"]; b["core.wide.us_per_net"] <= b["core.local.us_per_net"] {
		t.Errorf("oracle-batch: wide %v µs/net not above local %v", b["core.wide.us_per_net"], b["core.local.us_per_net"])
	}
	if v := layers["service-solve"]["service.cache_hits"]; v == 0 {
		t.Errorf("service-solve saw no cache hit")
	}
}

func sameNames(t *testing.T, what string, defs []metricDef, got map[string]float64) {
	t.Helper()
	for _, d := range defs {
		if _, ok := got[d.Name]; !ok {
			t.Errorf("%s: %s is in BENCHMARK.json but was not emitted", what, d.Name)
		}
	}
	if len(got) != len(defs) {
		t.Errorf("%s: emitted %d names, BENCHMARK.json lists %d", what, len(got), len(defs))
	}
}

func checkTrace(t *testing.T, rec *record) {
	t.Helper()
	data, err := os.ReadFile(rec.TraceFile)
	if err != nil {
		t.Fatalf("%s: %v", rec.Workload, err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: trace: %v", rec.Workload, err)
	}
	if len(doc.Spans) == 0 {
		t.Fatalf("%s: empty trace", rec.Workload)
	}
	for _, s := range doc.Spans {
		if s.End < s.Start || s.Self < 0 {
			t.Errorf("%s: span %d %s: start %d end %d self %d", rec.Workload, s.ID, s.Name, s.Start, s.End, s.Self)
		}
		if s.Parent < 0 {
			continue
		}
		p := doc.Spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("%s: span %d %s [%d,%d] lies outside its parent %s [%d,%d]",
				rec.Workload, s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
}

func checkAttribution(t *testing.T, rec *record) {
	t.Helper()
	var sum, wall float64
	for _, row := range rec.Attribution {
		switch {
		case row.Name == "= traced op wall":
			wall = row.Seconds
		case !row.Sub:
			sum += row.Seconds
		}
	}
	if wall <= 0 || math.Abs(sum-wall) > 1e-6*wall+1e-9 {
		t.Errorf("%s: attribution rows sum to %v, traced op wall is %v", rec.Workload, sum, wall)
	}
}

// TestOutputChecksFire injects a missing tree, an invalid tree and a
// non-200 reply and expects each workload's output check to count a
// failed operation.
func TestOutputChecksFire(t *testing.T) {
	spec := mustSpec(t)
	newRun := func(workload string) *run {
		return &run{cfg: testConfig(t, workload), spec: spec, e2e: map[string]float64{}}
	}

	t.Run("route", func(t *testing.T) {
		r := newRun("cold-route")
		w := &routeWorkload{}
		if err := w.setup(r); err != nil {
			t.Fatal(err)
		}
		res, err := costdist.RouteChip(w.chip, costdist.CD, w.options(r))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkRouteResult(w.chip, res); err != nil {
			t.Fatalf("intact result rejected: %v", err)
		}
		res.Trees[len(res.Trees)/2] = nil
		if _, err := checkRouteResult(w.chip, res); err == nil {
			t.Error("a result with a missing tree passed the check")
		}
	})

	t.Run("batch", func(t *testing.T) {
		r := newRun("oracle-batch")
		w := &batchWorkload{}
		if err := w.setup(r); err != nil {
			t.Fatal(err)
		}
		ins := w.ins[len(w.ins)-3:] // three local nets are enough
		w.ins = ins
		out := costdist.SolveBatch(ins, costdist.CD, costdist.BatchOptions{Workers: 1, Router: costdist.DefaultRouterOptions()})
		if w.check(r, out); r.failed != 0 {
			t.Fatalf("intact batch counted %d failures", r.failed)
		}
		out[1].Tree = &costdist.Tree{} // reaches no sink
		if w.check(r, out); r.failed != 1 {
			t.Errorf("a batch with an invalid tree counted %d failures, want 1", r.failed)
		}
	})

	t.Run("service", func(t *testing.T) {
		r := newRun("service-solve")
		r.cfg.sz.Requests, r.cfg.sz.Warmup = 8, 0
		w := &serviceWorkload{}
		if err := w.setup(r); err != nil {
			t.Fatal(err)
		}
		w.docs[w.seq[3]] = []byte(`{"nx": 1}`) // the server answers 422
		srv, err := startServer(1)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.stop()
		replies := srv.drive(nil, -1, 0, 0, w.docs, w.seq, 1)
		if replies[3].status == http.StatusOK {
			t.Fatal("the malformed document was answered 200")
		}
		if w.check(r, replies, 0); r.failed != 1 {
			t.Errorf("a pass with a non-200 reply counted %d failures, want 1", r.failed)
		}
	})
}

// TestCompareVerdicts pins compare's three outcomes on synthetic runs.
func TestCompareVerdicts(t *testing.T) {
	spec := mustSpec(t)
	mk := func(wall float64, hits float64) *suite {
		e2e := map[string]float64{}
		for _, d := range spec.EndToEnd {
			e2e[d.Name] = 1
		}
		e2e["wall_s"] = wall
		return &suite{Runs: []record{{
			Workload: "service-solve", Seed: 1, EndToEnd: e2e,
			PerLayer: map[string]float64{"service.cache_hits": hits},
			OpWallS:  distSummary{N: 5, Q1: wall, Median: wall, Q3: wall},
		}}}
	}
	bound, _ := spec.def(spec.EndToEnd, "wall_s")
	if code := compareSuites(spec, mk(1, 150), mk(1+bound.Bound/2, 150)); code != 0 {
		t.Errorf("a slowdown of half the bound exited %d, want 0", code)
	}
	if code := compareSuites(spec, mk(1, 150), mk(1+2*bound.Bound, 150)); code != 1 {
		t.Errorf("a slowdown of twice the bound exited %d, want 1", code)
	}
	if code := compareSuites(spec, mk(1, 150), mk(1, 151)); code != 1 {
		t.Errorf("a differing deterministic count exited %d, want 1", code)
	}
}

func TestRefusesMoreThreadsThanCPUs(t *testing.T) {
	cfg := testConfig(t, "cold-route")
	cfg.threads = runtime.NumCPU() + 1
	if _, err := runWorkload(mustSpec(t), cfg); err == nil {
		t.Error("threads > nproc was accepted")
	}
}

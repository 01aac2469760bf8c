package tables

import (
	"strings"
	"testing"

	"costdist/internal/grid"
	"costdist/internal/nets"
	"costdist/internal/router"
)

func tinyConfig() Config {
	return Config{Scale: 0.0012, Chips: []int{0}, Waves: 2, Threads: 2, Seed: 3}
}

func TestInstanceComparisonShape(t *testing.T) {
	rows, err := InstanceComparison(tinyConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("row count %d", len(rows))
	}
	if rows[4].Label != "all" {
		t.Fatalf("last row %q", rows[4].Label)
	}
	total := 0
	for _, r := range rows[:4] {
		total += r.Instances
		for mi, v := range r.AvgPct {
			if v < 0 {
				t.Fatalf("negative increase for method %d in %s", mi, r.Label)
			}
		}
	}
	if total == 0 {
		t.Fatal("no instances tabulated")
	}
	if rows[4].Instances != total {
		t.Fatalf("all row %d != sum %d", rows[4].Instances, total)
	}
	// At least one bucket per row set must have a zero-increase method
	// (someone is best).
	out := FormatInstanceTable("TABLE I", rows)
	if !strings.Contains(out, "TABLE I") || !strings.Contains(out, "CD") {
		t.Fatalf("format broken:\n%s", out)
	}
}

func TestTableIII(t *testing.T) {
	rows := TableIII(Config{Scale: 1.0})
	if len(rows) != 8 {
		t.Fatalf("chips %d", len(rows))
	}
	if rows[0].Nets != 49734 || rows[7].Layers != 15 {
		t.Fatalf("table III wrong: %+v", rows)
	}
	out := FormatTableIII(rows, 1.0)
	if !strings.Contains(out, "c8") {
		t.Fatal("format missing chips")
	}
}

func TestGlobalRoutingShape(t *testing.T) {
	rows, err := GlobalRouting(tinyConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows %d want 4 (1 chip × 4 methods)", len(rows))
	}
	seen := map[router.Method]bool{}
	for _, r := range rows {
		seen[r.Method] = true
		if r.Metrics.WLm <= 0 {
			t.Fatalf("%v: no wirelength", r.Method)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("methods missing: %v", seen)
	}
	out := FormatGRTable("TABLE V", rows)
	for _, want := range []string{"c1", "L1", "SL", "PD", "CD", "ACE4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

func TestFigure1(t *testing.T) {
	pdSVG, cdSVG, pdBifs, cdBifs, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(pdSVG, "<svg") || !strings.HasPrefix(cdSVG, "<svg") {
		t.Fatal("not SVG output")
	}
	// The paper's claim: CD has no more bifurcations on the critical
	// path than the topology-first baseline on this kind of instance.
	if cdBifs > pdBifs {
		t.Fatalf("CD critical path has more bifurcations: %d vs %d", cdBifs, pdBifs)
	}
	t.Logf("bifurcations on critical path: PD=%d CD=%d", pdBifs, cdBifs)
}

// TestBifurcationsOnPath counts by hand on a trunk that leaves the root
// both ways and drops one stub on the way right; a sink the steps do not
// reach is an error, not a count.
func TestBifurcationsOnPath(t *testing.T) {
	g, c := figGraph(6, 3, 2)
	step := func(u, v grid.V) nets.Step {
		var st nets.Step
		g.Arcs(u, g.FullWindow(), func(a grid.Arc) bool {
			st = nets.Step{From: u, Arc: a}
			return a.To != v
		})
		return st
	}
	at := func(x, l int32) grid.V { return g.At(x, 1, l) }
	in := &nets.Instance{G: g, C: c, Root: at(1, 0), Win: g.FullWindow()}
	for _, v := range []grid.V{at(4, 0), at(2, 1), at(0, 0), g.At(5, 2, 0)} {
		in.Sinks = append(in.Sinks, nets.Sink{V: v, W: 1})
	}
	tr := &nets.RTree{Steps: []nets.Step{
		step(at(1, 0), at(2, 0)), step(at(2, 0), at(3, 0)), step(at(3, 0), at(4, 0)),
		step(at(2, 0), at(2, 1)), step(at(0, 0), at(1, 0)),
	}}
	for sink, want := range []int{2, 2, 1} {
		if got, err := bifurcationsOnPath(in, tr, sink); err != nil || got != want {
			t.Fatalf("sink %d: %d bifurcations, error %v; want %d", sink, got, err, want)
		}
	}
	if _, err := bifurcationsOnPath(in, tr, 3); err == nil {
		t.Fatal("a sink off the tree was counted")
	}
}

func TestFigure2(t *testing.T) {
	svg := Figure2(0.25)
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "dbif") {
		t.Fatal("figure 2 malformed")
	}
}

func TestFigure3(t *testing.T) {
	frames, events, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(events) || len(events) != 5 {
		t.Fatalf("expected 5 iterations, got %d frames / %d events", len(frames), len(events))
	}
	if !events[len(events)-1].ToRoot {
		t.Fatal("last merge should hit the root")
	}
	for _, f := range frames {
		if !strings.HasPrefix(f, "<svg") {
			t.Fatal("frame not SVG")
		}
	}
}

func TestAblation(t *testing.T) {
	rows, err := Ablation(tinyConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("variant count %d", len(rows))
	}
	if rows[0].Name != "default" || rows[0].AvgPct != 0 {
		t.Fatalf("default row wrong: %+v", rows[0])
	}
	if rows[0].Instances == 0 {
		t.Fatal("no instances")
	}
	out := FormatAblation(rows)
	if !strings.Contains(out, "ABLATION") || !strings.Contains(out, "flat-heap") {
		t.Fatalf("format:\n%s", out)
	}
}

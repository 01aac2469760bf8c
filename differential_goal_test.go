package costdist

// Band 2 of the differential harness: instances with 8–12 sinks over
// windows the Dreyfus–Wagner DP cannot afford, certified by the
// goal-oriented exact solver (SolveExactGoal). Beyond the band-1
// assertions (heuristics ≥ certified lower bound, CD inside the
// 3 + 2·log₂(t+1) approximation band, structural tree checks), every
// instance's certified optimality gap of the CD heuristic is locked in
// testdata/certified_gaps.json: the whole pipeline is deterministic, so
// any drift — a regression that widens a gap, or an improvement that
// the corpus does not yet reflect — fails the test until the corpus is
// regenerated. The same solves pin the goal search's work (settled,
// generated and pruned labels, window vertices) exactly in
// testdata/exact_work.json, the deterministic counts the exact tier's
// budgets are stated in. Both files are regenerated with:
//
//	PINS_UPDATE=1 go test ./...

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"costdist/internal/pins"
)

const (
	certifiedGapsFile = "testdata/certified_gaps.json"
	exactWorkFile     = "testdata/exact_work.json"
)

// gapEntry is one instance's certified record: the exact lower bound
// and the CD heuristic's evaluated objective and relative gap above it.
type gapEntry struct {
	Name       string  `json:"name"`
	Sinks      int     `json:"sinks"`
	LowerBound float64 `json:"lower_bound"`
	CDTotal    float64 `json:"cd_total"`
	Gap        float64 `json:"gap"`
}

// exactWorkEntry is one instance's goal-search work (exact.GoalStats).
type exactWorkEntry struct {
	Name        string `json:"name"`
	Settled     int64  `json:"settled"`
	Generated   int64  `json:"generated"`
	Pruned      int64  `json:"pruned"`
	WindowVerts int64  `json:"window_verts"`
}

// band2Case is one band-2 configuration; all fields feed diffInstance.
type band2Case struct {
	seed  uint64
	nx    int32
	sinks int
	dbif  float64
}

func band2Cases() []band2Case {
	// 8–12 sinks, beyond the DP's practical reach on these windows; the
	// window shrinks as the subset dimension grows to keep the whole
	// band's label work inside a CI-friendly minute.
	return []band2Case{
		{seed: 1, nx: 14, sinks: 8, dbif: 0},
		{seed: 2, nx: 15, sinks: 9, dbif: 20},
		{seed: 3, nx: 13, sinks: 10, dbif: 0},
		{seed: 4, nx: 12, sinks: 11, dbif: 20},
		{seed: 5, nx: 10, sinks: 12, dbif: 0},
		{seed: 6, nx: 13, sinks: 9, dbif: 20},
	}
}

func (c band2Case) name() string {
	return fmt.Sprintf("seed%d_nx%d_s%d_dbif%g", c.seed, c.nx, c.sinks, c.dbif)
}

// computeCertifiedGaps runs band 2: certify each instance with the goal
// solver (incumbent seeded by the CD tree), assert the differential
// properties for every heuristic, and return the gap and work records.
func computeCertifiedGaps(t *testing.T) ([]gapEntry, []exactWorkEntry) {
	t.Helper()
	ropt := DefaultRouterOptions()
	var out []gapEntry
	var work []exactWorkEntry
	for _, c := range band2Cases() {
		in := diffInstance(c.seed, c.nx, c.sinks, c.dbif)

		cdTree, err := SolveCD(in, DefaultCDOptions())
		if err != nil {
			t.Fatalf("%s: cd: %v", c.name(), err)
		}
		cdEv, err := Evaluate(in, cdTree)
		if err != nil {
			t.Fatalf("%s: cd evaluate: %v", c.name(), err)
		}

		lim := DefaultExactGoalLimits()
		lim.UpperBound = cdEv.Total
		ex, err := SolveExactGoalLimits(context.Background(), in, lim)
		if err != nil {
			t.Fatalf("%s: goal solver: %v", c.name(), err)
		}
		if ex.Total < ex.LowerBound-1e-9 {
			t.Fatalf("%s: exact upper bound %v below its lower bound %v", c.name(), ex.Total, ex.LowerBound)
		}
		exEv, err := Evaluate(in, ex.Tree)
		if err != nil {
			t.Fatalf("%s: exact tree invalid: %v", c.name(), err)
		}
		checkTreeProperties(t, in, ex.Tree, exEv)

		t1 := float64(in.T())
		band := 3 + 2*math.Log2(t1+1)
		for _, m := range []Method{CD, L1, SL, PD} {
			var tr *Tree
			if m == CD {
				tr = cdTree
			} else {
				tr, err = Solve(in, m, ropt)
				if err != nil {
					t.Fatalf("%s %v: %v", c.name(), m, err)
				}
			}
			ev := cdEv
			if m != CD {
				ev, err = Evaluate(in, tr)
				if err != nil {
					t.Fatalf("%s %v: evaluate: %v", c.name(), m, err)
				}
			}
			checkTreeProperties(t, in, tr, ev)
			if ev.Total < ex.LowerBound-1e-6 {
				t.Fatalf("%s %v: heuristic total %v beats certified lower bound %v",
					c.name(), m, ev.Total, ex.LowerBound)
			}
			if ev.Total > band*ex.LowerBound+1e-9 {
				t.Fatalf("%s %v: total %v outside approximation band %.2f×%v",
					c.name(), m, ev.Total, band, ex.LowerBound)
			}
		}

		gap := (cdEv.Total - ex.LowerBound) / ex.LowerBound
		t.Logf("%s: LB %.6f, CD %.6f, gap %.4f%% (settled %d labels over %d window verts)",
			c.name(), ex.LowerBound, cdEv.Total, 100*gap, ex.Goal.Settled, ex.Goal.WindowVerts)
		out = append(out, gapEntry{
			Name: c.name(), Sinks: c.sinks,
			LowerBound: ex.LowerBound, CDTotal: cdEv.Total, Gap: gap,
		})
		g := ex.Goal
		work = append(work, exactWorkEntry{
			Name: c.name(), Settled: g.Settled, Generated: g.Generated,
			Pruned: g.Pruned, WindowVerts: g.WindowVerts,
		})
	}
	return out, work
}

func TestDifferentialCertifiedGaps(t *testing.T) {
	got, gotWork := computeCertifiedGaps(t)
	var wantWork []exactWorkEntry
	pins.JSON(t, exactWorkFile, gotWork, &wantWork)
	if !slices.Equal(gotWork, wantWork) {
		t.Errorf("goal search work moved from %s — a change to the exact tier's search regenerates it with PINS_UPDATE=1:\n got  %+v\n want %+v",
			exactWorkFile, gotWork, wantWork)
	}
	var want []gapEntry
	pins.JSON(t, certifiedGapsFile, got, &want)
	if len(want) != len(got) {
		t.Fatalf("gap corpus has %d entries, band 2 produced %d — corpus stale, regen with PINS_UPDATE=1", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name || g.Sinks != w.Sinks {
			t.Fatalf("entry %d is %s/%d sinks, corpus has %s/%d — corpus stale, regen with PINS_UPDATE=1",
				i, g.Name, g.Sinks, w.Name, w.Sinks)
		}
		if math.Abs(g.LowerBound-w.LowerBound) > 1e-9*(1+w.LowerBound) {
			t.Errorf("%s: certified lower bound moved from %v to %v — corpus stale, regen with PINS_UPDATE=1",
				w.Name, w.LowerBound, g.LowerBound)
			continue
		}
		switch {
		case g.Gap > w.Gap+1e-9:
			t.Errorf("%s: certified gap regressed from %.6f%% to %.6f%% (CD total %v → %v)",
				w.Name, 100*w.Gap, 100*g.Gap, w.CDTotal, g.CDTotal)
		case g.Gap < w.Gap-1e-9:
			t.Errorf("%s: certified gap improved from %.6f%% to %.6f%% — lock it in with PINS_UPDATE=1",
				w.Name, 100*w.Gap, 100*g.Gap)
		}
	}
}

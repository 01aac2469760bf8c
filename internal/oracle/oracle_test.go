package oracle_test

import (
	"errors"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"costdist"
	"costdist/internal/chipgen"
	"costdist/internal/core"
	"costdist/internal/embed"
	"costdist/internal/geom"
	"costdist/internal/nets"
	"costdist/internal/oracle"
	"costdist/internal/pd"
	"costdist/internal/router"
	"costdist/internal/rsmt"
	"costdist/internal/sl"
)

func TestRegistryNamesAndAliases(t *testing.T) {
	want := []string{"cd", "exact", "pd", "rsmt", "sl"}
	if !reflect.DeepEqual(oracle.Names(), want) {
		t.Fatalf("Names() = %v, want %v (sorted)", oracle.Names(), want)
	}
	for _, name := range []string{"cd", "CD", " cd ", "rsmt", "l1", "L1", "sl", "pd", "exact"} {
		if oracle.Index(name) < 0 {
			t.Fatalf("Index(%q) failed", name)
		}
	}
	if oracle.Index("dijkstra") >= 0 {
		t.Fatal("unknown oracle resolved")
	}
	if i := oracle.Index("l1"); i < 0 || oracle.Names()[i] != "rsmt" {
		t.Fatalf("alias l1 resolved to index %d", i)
	}
}

func TestHints(t *testing.T) {
	if !oracle.UsesBudgets(oracle.Index("sl")) {
		t.Fatal("sl must be budget-sensitive")
	}
	for _, name := range []string{"cd", "rsmt", "pd", "exact"} {
		if oracle.UsesBudgets(oracle.Index(name)) {
			t.Fatalf("%s must not be budget-sensitive", name)
		}
	}
}

// captureInstances routes a tiny chip and returns realistic mid-flow
// instances (priced multipliers, Lagrangean weights, budgets).
func captureInstances(t *testing.T) []*nets.Instance {
	t.Helper()
	spec := chipgen.Suite(0.002)[0]
	chip, err := chipgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := router.DefaultOptions()
	opt.Waves = 2
	opt.Threads = 2
	opt.CaptureWave = 1
	res, err := router.Route(chip, router.CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Captured) < 8 {
		t.Fatalf("captured only %d instances", len(res.Captured))
	}
	return res.Captured[:8]
}

// legacySolve replicates, verbatim, the pre-refactor enum-dispatch
// routeNet/SolveNet path of internal/router, so the oracle table is
// locked bit-for-bit against it. It spells the baselines' parameters
// (PD α = 0.3, SL ε = 0.25) itself, independently of the table's
// constants.
func legacySolve(in *nets.Instance, m router.Method) (*nets.RTree, error) {
	lbif := 0.0
	if d := in.C.MinDelayPerGCell(); d > 0 {
		lbif = in.DBif / d
	}
	if m == router.CD {
		return core.Solve(in, core.DefaultOptions())
	}
	pts := in.TermPts()
	ws := make([]float64, len(in.Sinks))
	for i, s := range in.Sinks {
		ws[i] = s.W
	}
	var topo *nets.PlaneTree
	switch m {
	case router.L1:
		topo = rsmt.Build(pts)
	case router.SL:
		var bounds []float64
		if in.Budgets != nil {
			if d := in.C.MinDelayPerGCell(); d > 0 {
				bounds = make([]float64, len(in.Sinks))
				rootPt := in.G.Pt(in.Root)
				for k := range in.Sinks {
					l1 := float64(geom.L1(rootPt, in.G.Pt(in.Sinks[k].V)))
					b := in.Budgets[k] / d
					if b < l1 {
						b = l1
					}
					bounds[k] = b
				}
			}
		}
		topo = sl.Build(pts, ws, sl.Params{Eps: 0.25, Bound: bounds, LBif: lbif, Eta: in.Eta})
	case router.PD:
		topo = pd.Build(pts, ws, pd.Params{Alpha: 0.3, LBif: lbif, Eta: in.Eta})
	}
	r, err := embed.Embed(in, topo)
	if err != nil {
		return nil, err
	}
	return r.Tree, nil
}

// A fixed single-oracle run through the table must be bit-identical
// to the pre-refactor enum path on every oracle and instance.
func TestFixedOracleBitIdenticalToLegacyEnumPath(t *testing.T) {
	ins := captureInstances(t)
	for _, m := range []router.Method{router.L1, router.SL, router.PD, router.CD} {
		for i, in := range ins {
			want, err := legacySolve(in, m)
			if err != nil {
				t.Fatalf("%v/%d legacy: %v", m, i, err)
			}
			got, err := router.SolveNet(in, m, nil)
			if err != nil {
				t.Fatalf("%v/%d table: %v", m, i, err)
			}
			if !reflect.DeepEqual(want.Steps, got.Steps) {
				t.Fatalf("%v instance %d: table tree differs from legacy enum path", m, i)
			}
		}
	}
}

// Portfolio mode must return the best-priced tree among its pool —
// every oracle but the exact tier.
func TestPortfolioKeepsBestPriced(t *testing.T) {
	ins := captureInstances(t)
	for i, in := range ins {
		got, err := router.SolveNet(in, router.Portfolio, nil)
		if err != nil {
			t.Fatalf("portfolio/%d: %v", i, err)
		}
		gotEv, err := nets.Evaluate(in, got)
		if err != nil {
			t.Fatal(err)
		}
		best := -1.0
		for _, m := range []router.Method{router.L1, router.SL, router.PD, router.CD} {
			tr, err := router.SolveNet(in, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := nets.Evaluate(in, tr)
			if err != nil {
				t.Fatal(err)
			}
			if best < 0 || ev.Total < best {
				best = ev.Total
			}
		}
		if gotEv.Total > best+1e-9 {
			t.Fatalf("portfolio/%d: kept %v, best single oracle %v", i, gotEv.Total, best)
		}
	}
}

// The exact tier must never return a worse-priced tree than the CD
// heuristic it is seeded with: within budget it certifies or improves
// the CD tree, beyond budget it falls back to it verbatim.
func TestExactOracleNeverWorseThanCD(t *testing.T) {
	ins := captureInstances(t)
	for i, in := range ins {
		cd, err := router.SolveNet(in, router.CD, nil)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := router.SolveNet(in, router.Exact, nil)
		if err != nil {
			t.Fatalf("exact/%d: %v", i, err)
		}
		cdEv, err := nets.Evaluate(in, cd)
		if err != nil {
			t.Fatal(err)
		}
		exEv, err := nets.Evaluate(in, ex)
		if err != nil {
			t.Fatalf("exact/%d tree invalid: %v", i, err)
		}
		if exEv.Total > cdEv.Total+1e-9*cdEv.Total {
			t.Fatalf("exact/%d: %v worse than cd %v", i, exEv.Total, cdEv.Total)
		}
	}
}

// Beyond the deterministic budget (here: a net with more sinks than
// OracleLimits allows) the exact tier returns the CD tree bit-for-bit.
func TestExactOracleFallsBackToCD(t *testing.T) {
	ins := captureInstances(t)
	in := ins[0]
	// Oversize the net: replicate sinks until past the oracle budget.
	big := *in
	big.Sinks = append([]nets.Sink{}, in.Sinks...)
	g := in.G
	for i := int32(0); len(big.Sinks) <= 9; i++ {
		big.Sinks = append(big.Sinks, nets.Sink{V: g.At(i%g.NX, (i*3)%g.NY, 0), W: 0.001})
	}
	big.Win = big.DefaultWindow(6)
	cd, err := router.SolveNet(&big, router.CD, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := router.SolveNet(&big, router.Exact, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cd.Steps, ex.Steps) {
		t.Fatal("over-budget exact solve did not fall back to the CD tree")
	}
}

// An oracle error must fail the run, never be swallowed: a fixed-method
// route reports the net and returns no result, and a portfolio race
// names the failing pool member. A panicking oracle is contained the
// same way: a route on wave goroutines fails with the net that
// panicked, and a batch reports it per instance and carries on.
func TestFaultyOracleSurfacesError(t *testing.T) {
	ins := captureInstances(t)
	fault := errors.New("injected fault")
	faulty := func(*nets.Instance, *oracle.Env) (*nets.RTree, error) { return nil, fault }

	oracle.SwapSolve(t, "pd", faulty)
	if _, err := router.SolveNet(ins[0], router.Portfolio, nil); err == nil ||
		!errors.Is(err, fault) || !strings.HasPrefix(err.Error(), "portfolio pd: ") {
		t.Fatalf("portfolio with a faulty pd: err %v, want \"portfolio pd: injected fault\"", err)
	}

	oracle.SwapSolve(t, "cd", faulty)
	chip, err := chipgen.Generate(chipgen.Suite(0.002)[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := router.DefaultOptions()
	opt.Waves = 1
	opt.Threads = 2
	res, err := router.Route(chip, router.CD, opt)
	if res != nil || !errors.Is(err, fault) || !regexp.MustCompile(`^net \d+: injected fault$`).MatchString(err.Error()) {
		t.Fatalf("route with a faulty cd: result %v, err %v; want nil and \"net N: injected fault\"", res != nil, err)
	}

	oracle.SwapSolve(t, "cd", func(*nets.Instance, *oracle.Env) (*nets.RTree, error) { panic("injected panic") })
	// The error names the closure above as the panicking frame.
	const site = ` at costdist/internal/oracle_test\.TestFaultyOracleSurfacesError\.func\d+ \(oracle_test\.go:\d+\)$`
	res, err = router.Route(chip, router.CD, opt)
	if res != nil || err == nil || !regexp.MustCompile(`^net \d+: panicked: injected panic`+site).MatchString(err.Error()) {
		t.Fatalf("route with a panicking cd: result %v, err %v; want nil and \"net N: panicked: injected panic at <the panicking closure>\"", res != nil, err)
	}
	bopt := costdist.DefaultBatchOptions()
	bopt.Workers = 2
	for i, r := range costdist.SolveBatch(ins, costdist.CD, bopt) {
		if r.Tree != nil || r.Err == nil || !regexp.MustCompile(`^panicked: injected panic`+site).MatchString(r.Err.Error()) {
			t.Fatalf("batch instance %d with a panicking cd: tree %v, err %v", i, r.Tree != nil, r.Err)
		}
	}
}

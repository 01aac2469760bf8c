package router

import (
	"context"
	"slices"
	"testing"

	"costdist/internal/chipgen"
	"costdist/internal/nets"
)

func tinyChip(t *testing.T, idx int, scale float64) *chipgen.Chip {
	t.Helper()
	spec := chipgen.Suite(scale)[idx]
	chip, err := chipgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

func TestRouteAllMethodsSmoke(t *testing.T) {
	chip := tinyChip(t, 0, 0.002) // ~100 nets
	opt := DefaultOptions()
	opt.Waves = 2
	opt.Threads = 2
	for _, m := range []Method{L1, SL, PD, CD, Portfolio} {
		res, err := Route(chip, m, opt)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		mt := res.Metrics
		if mt.WLm <= 0 || mt.Vias <= 0 {
			t.Fatalf("%v: degenerate metrics %+v", m, mt)
		}
		var oracleSolves int64
		for _, c := range mt.SolvesByOracle {
			oracleSolves += c
		}
		switch m {
		case Portfolio:
			if oracleSolves != 4*mt.NetsSolved {
				t.Fatalf("portfolio: %d oracle solves for %d nets", oracleSolves, mt.NetsSolved)
			}
		default:
			if oracleSolves != mt.NetsSolved || mt.SolvesByOracle[m.Name()] != mt.NetsSolved {
				t.Fatalf("%v: counters %v for %d nets", m, mt.SolvesByOracle, mt.NetsSolved)
			}
		}
		if mt.ACE4 < 0 || mt.ACE4 > 400 {
			t.Fatalf("%v: ACE4 out of range %v", m, mt.ACE4)
		}
		if mt.WS > 0 && mt.TNS != 0 {
			t.Fatalf("%v: inconsistent WS/TNS %+v", m, mt)
		}
		if mt.Walltime <= 0 {
			t.Fatalf("%v: no walltime", m)
		}
	}
}

func TestDeterministicAcrossThreadCounts(t *testing.T) {
	chip := tinyChip(t, 1, 0.0015)
	opt := DefaultOptions()
	opt.Waves = 2
	for _, m := range []Method{CD, PD} {
		opt.Threads = 1
		a, err := Route(chip, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Threads = 4
		b, err := Route(chip, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		if a.Metrics.WS != b.Metrics.WS || a.Metrics.TNS != b.Metrics.TNS ||
			a.Metrics.WLm != b.Metrics.WLm || a.Metrics.Vias != b.Metrics.Vias {
			t.Fatalf("%v: thread count changed results: %+v vs %+v", m, a.Metrics, b.Metrics)
		}
	}
}

func TestPricingReducesOverflow(t *testing.T) {
	chip := tinyChip(t, 2, 0.0008)
	opt := DefaultOptions()
	opt.Threads = 2
	opt.Waves = 1
	one, err := Route(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Waves = 5
	five, err := Route(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	if five.Metrics.Overflow > one.Metrics.Overflow*1.05+1 {
		t.Fatalf("pricing failed to reduce overflow: wave1 %v wave5 %v",
			one.Metrics.Overflow, five.Metrics.Overflow)
	}
}

// Captured instances are standalone and a function of the instance
// alone: the same nets in the same (net) order at any worker count, each
// carrying the budgets its solve consumed — not the ones the wave's
// closing timing update wrote afterwards. Wave 1 of a 2-wave run solves
// under the budgets a 1-wave run ends with.
func TestCaptureInstances(t *testing.T) {
	chip := tinyChip(t, 0, 0.002)
	opt := DefaultOptions()
	opt.Waves = 1
	_, st, err := RouteCheckpoint(context.Background(), chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Waves = 2
	opt.CaptureWave = 1
	var ref []*nets.Instance
	for _, threads := range []int{1, 4} {
		opt.Threads = threads
		res, err := Route(chip, CD, opt)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Captured
		if len(got) == 0 {
			t.Fatal("no instances captured")
		}
		multi, prev := 0, -1
		for i, in := range got {
			if in.G != chip.G {
				t.Fatal("captured instance lost graph")
			}
			if len(in.Sinks) >= 3 {
				multi++
			}
			// buildInstance's per-net seed names the net.
			ni := int(in.Seed - opt.Seed*0x9E3779B9)
			if ni <= prev || ni >= len(chip.NL.Nets) {
				t.Fatalf("threads=%d: capture %d is net %d after net %d, want net order", threads, i, ni, prev)
			}
			prev = ni
			if !slices.Equal(in.Budgets, st.Nets[ni].Budgets) {
				t.Fatalf("threads=%d: net %d captured budgets %v, its solve consumed %v", threads, ni, in.Budgets, st.Nets[ni].Budgets)
			}
		}
		if multi == 0 {
			t.Fatal("no multi-sink instances captured")
		}
		if ref == nil {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("threads=%d captured %d instances, threads=1 %d", threads, len(got), len(ref))
		}
		for i := range got {
			if got[i].Seed != ref[i].Seed || !slices.Equal(got[i].Budgets, ref[i].Budgets) {
				t.Fatalf("threads=%d: capture %d differs from threads=1", threads, i)
			}
		}
	}
	// Instances must be independently solvable and evaluable.
	in := ref[0]
	tr, err := SolveNet(in, L1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nets.Evaluate(in, tr); err != nil {
		t.Fatal(err)
	}
}

func TestMethodString(t *testing.T) {
	if L1.String() != "L1" || SL.String() != "SL" || PD.String() != "PD" || CD.String() != "CD" {
		t.Fatal("method names wrong")
	}
	if Portfolio.String() != "portfolio" {
		t.Fatal("driver mode names wrong")
	}
	if Method(9).String() == "" {
		t.Fatal("unknown method must still format")
	}
}

func TestMethodByName(t *testing.T) {
	for name, want := range map[string]Method{
		"cd": CD, "CD": CD, "rsmt": L1, "l1": L1, "L1": L1,
		"sl": SL, "pd": PD, "Portfolio": Portfolio,
		"exact": Exact, "Exact": Exact,
	} {
		got, ok := MethodByName(name)
		if !ok || got != want {
			t.Fatalf("MethodByName(%q) = %v, %v; want %v", name, got, ok, want)
		}
	}
	for _, name := range []string{"dijkstra", "auto"} {
		if _, ok := MethodByName(name); ok {
			t.Fatalf("unknown name %q resolved", name)
		}
	}
	names := MethodNames()
	if len(names) != 6 {
		t.Fatalf("MethodNames() = %v", names)
	}
	for _, n := range names {
		if m, ok := MethodByName(n); !ok || m.Name() != n {
			t.Fatalf("name %q does not round-trip (%v, %v)", n, m, ok)
		}
	}
}

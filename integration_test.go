package costdist

// Integration tests pinning the paper's headline qualitative claims on
// deterministic synthetic runs (the quantitative tables are committed in
// testdata/paper_tables.txt, which cmd/benchtables prints).

import (
	"testing"

	"costdist/internal/router"
	"costdist/internal/tables"
)

// TestPaperShapeViasAndWirelength checks §IV-C's signature trade-off on
// a full routing run: cost-distance trees spend wirelength to save vias
// and congestion ("cost-distance trees come with a higher wire length...
// the best via count").
func TestPaperShapeViasAndWirelength(t *testing.T) {
	if testing.Short() {
		t.Skip("routing flow")
	}
	chip, err := GenerateChip(ChipSuite(0.002)[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultRouterOptions()
	opt.Waves = 3
	opt.Threads = 2
	results := map[Method]RouteMetrics{}
	for _, m := range []Method{L1, PD, CD} {
		res, err := RouteChip(chip, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		results[m] = res.Metrics
	}
	if results[CD].Vias > results[L1].Vias {
		t.Errorf("CD vias %d exceed L1 vias %d — paper shape violated",
			results[CD].Vias, results[L1].Vias)
	}
	if results[CD].WLm < results[L1].WLm*0.95 {
		t.Errorf("CD wirelength %.4f unexpectedly far below L1 %.4f",
			results[CD].WLm, results[L1].WLm)
	}
	t.Logf("L1: vias=%d WL=%.4fm ACE4=%.2f | PD: vias=%d WL=%.4fm ACE4=%.2f | CD: vias=%d WL=%.4fm ACE4=%.2f",
		results[L1].Vias, results[L1].WLm, results[L1].ACE4,
		results[PD].Vias, results[PD].WLm, results[PD].ACE4,
		results[CD].Vias, results[CD].WLm, results[CD].ACE4)
}

// TestPaperShapeLargeInstancesFavorCD watches Tables I/II's trend, CD's
// relative position as |S| grows. It asserts only that CD's gap to the
// best baseline in the largest populated bucket is at most 10 points worse
// than in the 3–5 bucket, not that CD leads there.
func TestPaperShapeLargeInstancesFavorCD(t *testing.T) {
	if testing.Short() {
		t.Skip("instance comparison harness")
	}
	cfg := tables.Config{Scale: 0.003, Chips: []int{0, 1}, Waves: 2, Threads: 2, Seed: 7}
	rows, err := tables.InstanceComparison(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	// rows: 3-5, 6-14, 15-29, >=30, all. Compare CD's gap to the best
	// baseline in the smallest vs the largest populated bucket.
	gap := func(r tables.InstRow) float64 {
		bestBase := r.AvgPct[0]
		for _, v := range r.AvgPct[1:3] {
			if v < bestBase {
				bestBase = v
			}
		}
		return r.AvgPct[3] - bestBase
	}
	small := rows[0]
	var large *tables.InstRow
	for i := 3; i >= 2; i-- {
		if rows[i].Instances >= 3 {
			large = &rows[i]
			break
		}
	}
	if large == nil {
		t.Skip("no populated large bucket at this scale")
	}
	if small.Instances == 0 {
		t.Skip("no small instances")
	}
	t.Logf("CD gap to best baseline: |S|=3-5 %+.2f%%, |S|=%s %+.2f%%",
		gap(small), large.Label, gap(*large))
	// The paper's large-instance dominance (Table I: CD 1.73% vs L1
	// 7.09% on |S|≥30) is not asserted: CD trails every baseline in every
	// bucket of testdata/paper_tables.txt. The shape gates of ROADMAP item
	// 5(b) are this test's tightening.
	if gap(*large) > gap(small)+10 {
		t.Errorf("CD's relative position collapses on large instances: %+.2f%% vs %+.2f%%",
			gap(*large), gap(small))
	}
}

// TestDbifShiftsAllMethods mirrors the Tables IV→V transition: enabling
// bifurcation penalties reduces wirelength and vias for every method
// (delay prices weigh stronger relative to congestion, §IV-C).
func TestDbifShiftsAllMethods(t *testing.T) {
	if testing.Short() {
		t.Skip("routing flow")
	}
	chip, err := GenerateChip(ChipSuite(0.0015)[1])
	if err != nil {
		t.Fatal(err)
	}
	noBif := *chip
	noBif.DBif = 0
	opt := DefaultRouterOptions()
	opt.Waves = 3
	opt.Threads = 2
	for _, m := range []Method{L1, CD} {
		off, err := RouteChip(&noBif, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		on, err := RouteChip(chip, m, opt) // the technology's penalty
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%v: dbif off WS=%.0f TNS=%.0f WL=%.4f vias=%d | dbif on WS=%.0f TNS=%.0f WL=%.4f vias=%d",
			m, off.Metrics.WS, off.Metrics.TNS, off.Metrics.WLm, off.Metrics.Vias,
			on.Metrics.WS, on.Metrics.TNS, on.Metrics.WLm, on.Metrics.Vias)
		// The penalty must actually be active: identical results would
		// mean the plumbing is broken.
		if off.Metrics.TNS == on.Metrics.TNS && off.Metrics.WLm == on.Metrics.WLm &&
			off.Metrics.Vias == on.Metrics.Vias {
			t.Errorf("%v: dbif has no effect on the flow", m)
		}
	}
}

// TestRouterMatchesStandaloneSolver cross-checks that the router's
// internal per-net solving agrees with the public standalone API on
// captured instances.
func TestRouterMatchesStandaloneSolver(t *testing.T) {
	chip, err := GenerateChip(ChipSuite(0.0015)[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultRouterOptions()
	opt.Waves = 2
	opt.Threads = 2
	opt.CaptureWave = 1
	res, err := RouteChip(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Captured) == 0 {
		t.Fatal("nothing captured")
	}
	checked := 0
	for _, in := range res.Captured {
		if len(in.Sinks) < 2 || len(in.Sinks) > 12 {
			continue
		}
		tr1, err := Solve(in, CD, opt)
		if err != nil {
			t.Fatal(err)
		}
		tr2, err := SolveCD(in, DefaultCDOptions())
		if err != nil {
			t.Fatal(err)
		}
		ev1, err := Evaluate(in, tr1)
		if err != nil {
			t.Fatal(err)
		}
		ev2, err := Evaluate(in, tr2)
		if err != nil {
			t.Fatal(err)
		}
		if ev1.Total != ev2.Total {
			t.Fatalf("standalone mismatch: %v vs %v", ev1.Total, ev2.Total)
		}
		checked++
		if checked >= 20 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no instances checked")
	}
	_ = router.DefaultOptions() // keep the import explicit about layering
}

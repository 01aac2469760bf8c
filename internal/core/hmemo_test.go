package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"costdist/internal/dly"
	"costdist/internal/grid"
	"costdist/internal/nets"
)

// auditMemo has every future cost that scr's memo answers checked
// against a fresh Targets.Est, bit for bit. It returns the number of
// answers checked so far.
func auditMemo(t *testing.T, scr *Scratch) *int {
	t.Helper()
	hits := new(int)
	s := &scr.sol
	s.auditH = func(c *comp, x, y int32, h float64) {
		*hits++
		if want := s.targets.Est(c.id, x, y, c.ux, c.uy); math.Float64bits(h) != math.Float64bits(want) {
			t.Fatalf("memo answered h = %v for component %d at (%d, %d); Targets.Est gives %v", h, c.id, x, y, want)
		}
	}
	return hits
}

// horizontalGraph keeps only the horizontal layers of the default
// 4-layer stack: no layer runs in y, so the y unit of every search is
// +Inf.
func horizontalGraph(nx, ny int32) (*grid.Graph, *grid.Costs) {
	tech := dly.DefaultTech(4)
	var layers []grid.Layer
	for _, lay := range tech.BuildLayers() {
		if lay.Dir == grid.DirH {
			layers = append(layers, lay)
		}
	}
	g := grid.New(nx, ny, layers, tech.GCellUM)
	return g, grid.NewCosts(g)
}

// TestFutureCostMemoExact: every future cost h takes from its memo
// instead of scanning the live targets equals a fresh Targets.Est bit
// for bit. The cases reuse one arena across instances of several window
// shapes: seeded small windows under congestion, a 128×128×8 full window
// at t = 96, the flat heap, §III-A off, and a stack with no vertical
// layer (+Inf y unit). It fails with the component id dropped from a
// slot's tag and with the generation not advanced after a merge.
func TestFutureCostMemoExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 73))
	g, c := newGraph(24, 24, 5)
	for i := range c.Mult {
		if rng.IntN(3) == 0 {
			c.Mult[i] = 1 + 6*rng.Float32()
		}
	}
	small := func() []*nets.Instance {
		var ins []*nets.Instance
		for it := 0; it < 12; it++ {
			in := randInstance(rng, g, c, 1+rng.IntN(24), 4.0)
			in.Win = in.DefaultWindow(int32(1 + rng.IntN(4)))
			ins = append(ins, in)
		}
		return ins
	}
	wg, wc := wideGraph()
	hg, hc := horizontalGraph(20, 12)
	row := func() []*nets.Instance {
		var ins []*nets.Instance
		for it := 0; it < 8; it++ {
			y := rng.Int32N(hg.NY)
			in := &nets.Instance{G: hg, C: hc, Root: hg.At(rng.Int32N(hg.NX), y, 0),
				DBif: 2, Eta: 0.25, Seed: rng.Uint64()}
			for s := 0; s < 2+rng.IntN(6); s++ {
				in.Sinks = append(in.Sinks, nets.Sink{V: hg.At(rng.Int32N(hg.NX), y, rng.Int32N(2)), W: 0.02 * rng.Float64()})
			}
			in.Win = in.DefaultWindow(2)
			ins = append(ins, in)
		}
		return ins
	}
	flat, noDiscount := DefaultOptions(), DefaultOptions()
	flat.FlatHeap = true
	noDiscount.Discount = false
	cases := []struct {
		name string
		opt  Options
		ins  []*nets.Instance
	}{
		{"small windows", DefaultOptions(), small()},
		{"128x128x8 t=96", DefaultOptions(), []*nets.Instance{randInstance(rng, wg, wc, 96, 4.0)}},
		{"flat heap", flat, small()},
		{"discount off", noDiscount, small()},
		{"single-direction stack", DefaultOptions(), row()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.Scratch = NewScratch()
			hits := auditMemo(t, opt.Scratch)
			for _, in := range tc.ins {
				if _, err := Solve(in, opt); err != nil {
					t.Fatal(err)
				}
			}
			scans := opt.Scratch.Estimated
			t.Logf("%d future costs: %d scans, %d from the memo", scans+int64(*hits), scans, *hits)
			if *hits == 0 || scans == 0 {
				t.Fatalf("%d scans, %d memo answers: the memo is not exercised", scans, *hits)
			}
		})
	}
}

// TestFutureCostMemoStampWrap parks the memo's generation counter 0, 1
// and 2 stamps short of its 32-bit wrap, after a solve that left the
// memo holding slots stamped 1, 2, … The solve across the wrap is of
// the same sinks at three times the weights, so the components,
// positions and stamps it meets after the wrap are those of the stale
// slots, and only their values differ. Every memo answer must equal a
// fresh Est, the tree a fresh solve's, and the counter must end where
// the stamps issued put it. It fails with the wrap's clear removed.
func TestFutureCostMemoStampWrap(t *testing.T) {
	g, c := newGraph(24, 24, 5)
	warm := randInstance(rand.New(rand.NewPCG(61, 67)), g, c, 12, 4.0)
	heavy := *warm
	heavy.Sinks = slices.Clone(warm.Sinks)
	for i := range heavy.Sinks {
		heavy.Sinks[i].W *= 3
	}
	merges := 0
	want, err := SolveTraced(&heavy, DefaultOptions(), func(TraceEvent) { merges++ })
	if err != nil {
		t.Fatal(err)
	}
	for _, below := range []uint32{0, 1, 2} {
		t.Run(fmt.Sprintf("below%d", below), func(t *testing.T) {
			opt := DefaultOptions()
			opt.Scratch = NewScratch()
			if _, err := Solve(warm, opt); err != nil {
				t.Fatal(err)
			}
			hits := auditMemo(t, opt.Scratch)
			gen := &opt.Scratch.sol.targetsGen
			gen.Park(math.MaxUint32 - below)
			got, err := Solve(&heavy, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Steps, want.Steps) {
				t.Fatal("the tree differs from a fresh solve's")
			}
			// A solve takes one stamp at its start and one per merge.
			if issued := uint32(1 + merges); gen.Cur() != issued-below {
				t.Fatalf("counter at %d after %d stamps, want %d", gen.Cur(), issued, issued-below)
			}
			if *hits == 0 {
				t.Fatal("no memo answer was checked")
			}
		})
	}
}

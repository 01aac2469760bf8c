package sta

import (
	"math"
	"math/rand/v2"
	"testing"

	"costdist/internal/geom"
)

// chain builds PI -> c1 -> c2 -> PO with unit nets.
func chain() *Netlist {
	return &Netlist{
		Cells: []Cell{
			{Pos: geom.Pt{X: 0, Y: 0}, Delay: 5, Level: 0, PI: true},
			{Pos: geom.Pt{X: 1, Y: 0}, Delay: 7, Level: 1},
			{Pos: geom.Pt{X: 2, Y: 0}, Delay: 3, Level: 2, PO: true},
		},
		Nets: []Net{
			{Driver: 0, Sinks: []int32{1}},
			{Driver: 1, Sinks: []int32{2}},
		},
	}
}

func TestValidate(t *testing.T) {
	nl := chain()
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := chain()
	bad.Nets[0].Sinks = []int32{0} // self loop, same level
	if err := bad.Validate(); err == nil {
		t.Fatal("level violation not caught")
	}
	undriven := chain()
	undriven.Nets = undriven.Nets[:1]
	if err := undriven.Validate(); err == nil {
		t.Fatal("undriven cell not caught")
	}
}

func TestChainTiming(t *testing.T) {
	nl := chain()
	delays := [][]float64{{10}, {20}}
	res := Analyze(nl, func(n, k int) float64 { return delays[n][k] }, 50)
	// AT: c0 = 5; c1 = 5+10+7 = 22; c2 = 22+20+3 = 45.
	if res.AT[0] != 5 || res.AT[1] != 22 || res.AT[2] != 45 {
		t.Fatalf("AT = %v", res.AT)
	}
	// RAT: c2 = 50; c1 = 50-3-20 = 27; c0 = 27-7-10 = 10.
	if res.RAT[2] != 50 || res.RAT[1] != 27 || res.RAT[0] != 10 {
		t.Fatalf("RAT = %v", res.RAT)
	}
	if res.WS != 5 || res.TNS != 0 {
		t.Fatalf("WS=%v TNS=%v", res.WS, res.TNS)
	}
	// Pin slacks equal endpoint slack along a chain.
	if res.PinSlack(0, 0) != 5 || res.PinSlack(1, 0) != 5 {
		t.Fatalf("pin slacks %v %v", res.PinSlack(0, 0), res.PinSlack(1, 0))
	}
}

func TestNegativeSlack(t *testing.T) {
	nl := chain()
	res := Analyze(nl, func(n, k int) float64 { return 100 }, 50)
	// AT(c2) = 5+100+7+100+3 = 215, slack = 50-215 = -165.
	if res.WS != -165 || res.TNS != -165 {
		t.Fatalf("WS=%v TNS=%v", res.WS, res.TNS)
	}
}

func TestFanoutMaxAndMin(t *testing.T) {
	// PI drives two POs through one net with different delays: AT uses
	// max per sink path; RAT at driver uses min.
	nl := &Netlist{
		Cells: []Cell{
			{Delay: 0, Level: 0, PI: true},
			{Delay: 0, Level: 1, PO: true},
			{Delay: 0, Level: 1, PO: true},
		},
		Nets: []Net{{Driver: 0, Sinks: []int32{1, 2}}},
	}
	res := Analyze(nl, func(n, k int) float64 {
		if k == 0 {
			return 10
		}
		return 30
	}, 25)
	if res.AT[1] != 10 || res.AT[2] != 30 {
		t.Fatalf("AT = %v", res.AT)
	}
	if res.RAT[0] != -5 { // min(25-10, 25-30) = -5
		t.Fatalf("RAT[0] = %v", res.RAT[0])
	}
	if res.WS != -5 {
		t.Fatalf("WS = %v", res.WS)
	}
	if res.TNS != -5 {
		t.Fatalf("TNS = %v (only one endpoint violates)", res.TNS)
	}
	if res.PinSlack(0, 1) != -5 || res.PinSlack(0, 0) != 15 {
		t.Fatalf("pin slacks %v %v", res.PinSlack(0, 0), res.PinSlack(0, 1))
	}
}

// TestAgainstPathEnumeration cross-checks WS on random DAGs against
// brute-force path enumeration.
func TestAgainstPathEnumeration(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	for trial := 0; trial < 30; trial++ {
		nl, delays := randomDAG(rng)
		res := Analyze(nl, func(n, k int) float64 { return delays[n][k] }, 100)
		// Brute force: longest path to each PO.
		var dfs func(c int32, at float64)
		worst := math.Inf(1)
		adj := map[int32][][3]float64{} // driver -> (sink, netDelay, sinkCellDelay)
		for ni, n := range nl.Nets {
			for k, s := range n.Sinks {
				adj[n.Driver] = append(adj[n.Driver], [3]float64{float64(s), delays[ni][k], nl.Cells[s].Delay})
			}
		}
		dfs = func(c int32, at float64) {
			if nl.Cells[c].PO {
				if slack := 100 - at; slack < worst {
					worst = slack
				}
			}
			for _, e := range adj[c] {
				dfs(int32(e[0]), at+e[1]+e[2])
			}
		}
		for ci, c := range nl.Cells {
			if c.PI {
				dfs(int32(ci), c.Delay)
			}
		}
		if math.IsInf(worst, 1) {
			continue
		}
		if math.Abs(res.WS-worst) > 1e-9 {
			t.Fatalf("trial %d: WS %v vs brute force %v", trial, res.WS, worst)
		}
	}
}

func randomDAG(rng *rand.Rand) (*Netlist, [][]float64) {
	levels := 3 + rng.IntN(4)
	perLevel := 2 + rng.IntN(3)
	nl := &Netlist{}
	for l := 0; l < levels; l++ {
		for i := 0; i < perLevel; i++ {
			nl.Cells = append(nl.Cells, Cell{
				Delay: rng.Float64() * 10,
				Level: int32(l),
				PI:    l == 0,
				PO:    l == levels-1,
			})
		}
	}
	var delays [][]float64
	// Every cell above level 0 is driven by a random lower-level cell.
	for ci := perLevel; ci < len(nl.Cells); ci++ {
		lvl := nl.Cells[ci].Level
		drv := rng.IntN(int(lvl) * perLevel)
		nl.Nets = append(nl.Nets, Net{Driver: int32(drv), Sinks: []int32{int32(ci)}})
		delays = append(delays, []float64{rng.Float64() * 20})
	}
	return nl, delays
}

func TestLongestLevelPath(t *testing.T) {
	nl := chain()
	// The unrouted critical path under a constant per-net delay, as
	// chipgen estimates it to set clock periods: the largest PO arrival.
	longest := func(perNet float64) float64 {
		r := Analyze(nl, func(int, int) float64 { return perNet }, 0)
		worst := 0.0
		for ci, c := range nl.Cells {
			if c.PO && r.AT[ci] > worst {
				worst = r.AT[ci]
			}
		}
		return worst
	}
	// 5 + 10 + 7 + 10 + 3 with perNet=10.
	if got := longest(10); got != 35 {
		t.Fatalf("longest path = %v", got)
	}
	if got := longest(0); got != 15 {
		t.Fatalf("no-net path = %v", got)
	}
}

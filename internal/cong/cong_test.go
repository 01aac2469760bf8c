package cong

import (
	"math"
	"testing"

	"costdist/internal/grid"
)

func testGraph() *grid.Graph {
	layers := []grid.Layer{
		{Name: "M1", Dir: grid.DirH, Wires: []grid.WireType{{Name: "w", CostPerGCell: 1, DelayPerGCell: 10, CapUse: 1}}, SegCap: 4, ViaCap: 8, ViaCost: 0.5, ViaDelay: 1, ViaCapUse: 1},
		{Name: "M2", Dir: grid.DirV, Wires: []grid.WireType{{Name: "w", CostPerGCell: 1, DelayPerGCell: 8, CapUse: 1}}, SegCap: 4},
	}
	return grid.New(4, 4, layers, 50)
}

func arcBetween(g *grid.Graph, u, v grid.V) grid.Arc {
	var out grid.Arc
	found := false
	g.Arcs(u, g.FullWindow(), func(a grid.Arc) bool {
		if a.To == v {
			out = a
			found = true
			return false
		}
		return true
	})
	if !found {
		panic("no arc")
	}
	return out
}

func TestUsageAccounting(t *testing.T) {
	g := testGraph()
	u := NewUsage(g)
	a := arcBetween(g, g.At(0, 0, 0), g.At(1, 0, 0))
	u.AddArc(a)
	u.AddArc(a)
	if u.U[a.Seg] != 2 {
		t.Fatalf("usage = %v", u.U[a.Seg])
	}
	u.Reset()
	if u.U[a.Seg] != 0 {
		t.Fatal("Reset failed")
	}
}

func TestWirelengthM(t *testing.T) {
	g := testGraph()
	u := NewUsage(g)
	u.AddArc(arcBetween(g, g.At(0, 0, 0), g.At(1, 0, 0)))
	u.AddArc(arcBetween(g, g.At(1, 0, 0), g.At(2, 0, 0)))
	via := arcBetween(g, g.At(0, 0, 0), g.At(0, 0, 1))
	u.AddArc(via) // vias do not count toward wirelength
	want := 2 * 50.0 * 1e-6
	if got := u.WirelengthM(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("WL = %v want %v", got, want)
	}
}

func TestPricerRaisesCongested(t *testing.T) {
	g := testGraph()
	p := NewPricer(g, 1.0, 0.9)
	u := NewUsage(g)
	hot := arcBetween(g, g.At(0, 0, 0), g.At(1, 0, 0))
	for i := 0; i < 8; i++ { // usage 8 on cap 4 => ratio 2
		u.AddArc(hot)
	}
	p.Update(u)
	if p.Mult[hot.Seg] <= 1 {
		t.Fatalf("hot multiplier = %v", p.Mult[hot.Seg])
	}
	cold := arcBetween(g, g.At(0, 1, 0), g.At(1, 1, 0))
	if p.Mult[cold.Seg] != 1 {
		t.Fatalf("cold multiplier = %v", p.Mult[cold.Seg])
	}
	// Repeated updates saturate at maxMult.
	for i := 0; i < 100; i++ {
		p.Update(u)
	}
	if float64(p.Mult[hot.Seg]) > maxMult+1e-6 {
		t.Fatalf("multiplier exceeded maxMult: %v", p.Mult[hot.Seg])
	}
}

func TestPricerCostsView(t *testing.T) {
	g := testGraph()
	p := NewPricer(g, 1.0, 0.5)
	c := p.Costs()
	a := arcBetween(g, g.At(0, 0, 0), g.At(1, 0, 0))
	if c.ArcCost(a) != 1 {
		t.Fatalf("initial cost %v", c.ArcCost(a))
	}
	u := NewUsage(g)
	for i := 0; i < 8; i++ {
		u.AddArc(a)
	}
	p.Update(u)
	c2 := p.Costs()
	if c2.ArcCost(a) <= 1 {
		t.Fatalf("cost after congestion %v", c2.ArcCost(a))
	}
}

func TestACEHandComputed(t *testing.T) {
	g := testGraph()
	u := NewUsage(g)
	// 24 routing segments total (12 per layer on a 4x4 grid). Load one
	// segment at ratio 2.0, three at 1.0, rest 0.
	segs := []grid.Arc{
		arcBetween(g, g.At(0, 0, 0), g.At(1, 0, 0)),
		arcBetween(g, g.At(0, 1, 0), g.At(1, 1, 0)),
		arcBetween(g, g.At(0, 2, 0), g.At(1, 2, 0)),
		arcBetween(g, g.At(0, 3, 0), g.At(1, 3, 0)),
	}
	for i := 0; i < 8; i++ {
		u.AddArc(segs[0])
	}
	for _, a := range segs[1:] {
		for i := 0; i < 4; i++ {
			u.AddArc(a)
		}
	}
	// Sorted ratios: 2.0, 1.0, 1.0, 1.0, 0...  (24 routing segs)
	a := ACE(u, []float64{0.5, 100})
	// top 0.5% of 24 = ceil(0.12) = 1 segment -> 200%
	if math.Abs(a[0]-200) > 1e-9 {
		t.Fatalf("ACE(0.5) = %v want 200", a[0])
	}
	wantAll := 100 * (2.0 + 3*1.0) / 24
	if math.Abs(a[1]-wantAll) > 1e-9 {
		t.Fatalf("ACE(100) = %v want %v", a[1], wantAll)
	}
	ace4 := ACE4(u)
	if ace4 <= 0 || ace4 > 200 {
		t.Fatalf("ACE4 = %v out of range", ace4)
	}
}

func TestACEMonotoneInPercent(t *testing.T) {
	g := testGraph()
	u := NewUsage(g)
	for x := int32(0); x < 3; x++ {
		a := arcBetween(g, g.At(x, 0, 0), g.At(x+1, 0, 0))
		for i := int32(0); i <= x; i++ {
			u.AddArc(a)
		}
	}
	vals := ACE(u, []float64{0.5, 1, 2, 5, 10, 50, 100})
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1]+1e-9 {
			t.Fatalf("ACE not non-increasing: %v", vals)
		}
	}
}

func TestOverflow(t *testing.T) {
	g := testGraph()
	u := NewUsage(g)
	a := arcBetween(g, g.At(0, 0, 0), g.At(1, 0, 0))
	for i := 0; i < 6; i++ { // cap 4 -> overflow 2
		u.AddArc(a)
	}
	if got := Overflow(u); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Overflow = %v want 2", got)
	}
}

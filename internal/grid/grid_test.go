package grid

import (
	"math"
	"math/rand/v2"
	"testing"

	"costdist/internal/geom"
)

func testLayers(n int) []Layer {
	out := make([]Layer, n)
	for i := range out {
		d := DirH
		if i%2 == 1 {
			d = DirV
		}
		out[i] = Layer{
			Name: "M", Dir: d,
			Wires:  []WireType{{Name: "w1", CostPerGCell: 1, DelayPerGCell: 10, CapUse: 1}},
			SegCap: 10, ViaCap: 20, ViaCost: 0.5, ViaDelay: 2, ViaCapUse: 1,
		}
	}
	return out
}

func testGraph(nx, ny int32, layers int) *Graph {
	return New(nx, ny, testLayers(layers), 50)
}

func TestVertexRoundTrip(t *testing.T) {
	g := testGraph(7, 5, 3)
	seen := map[V]bool{}
	for l := int32(0); l < 3; l++ {
		for y := int32(0); y < 5; y++ {
			for x := int32(0); x < 7; x++ {
				v := g.At(x, y, l)
				if seen[v] {
					t.Fatalf("duplicate vertex id %d", v)
				}
				seen[v] = true
				gx, gy, gl := g.XYL(v)
				if gx != x || gy != y || gl != l {
					t.Fatalf("XYL(At(%d,%d,%d)) = %d,%d,%d", x, y, l, gx, gy, gl)
				}
			}
		}
	}
	if int32(len(seen)) != g.NumV() {
		t.Fatalf("NumV = %d but %d distinct ids", g.NumV(), len(seen))
	}
}

func TestSegmentIDsDisjoint(t *testing.T) {
	g := testGraph(6, 4, 4)
	seen := map[int32]string{}
	record := func(s int32, what string) {
		if prev, ok := seen[s]; ok {
			t.Fatalf("segment id %d reused: %s and %s", s, prev, what)
		}
		seen[s] = what
	}
	for l := int32(0); l < 4; l++ {
		if g.Layers[l].Dir == DirH {
			for y := int32(0); y < 4; y++ {
				for x := int32(0); x < 5; x++ {
					record(g.SegH(l, y, x), "H")
				}
			}
		} else {
			for x := int32(0); x < 6; x++ {
				for y := int32(0); y < 3; y++ {
					record(g.SegV(l, x, y), "V")
				}
			}
		}
	}
	for l := int32(0); l < 3; l++ {
		for y := int32(0); y < 4; y++ {
			for x := int32(0); x < 6; x++ {
				record(g.ViaSeg(l, x, y), "via")
			}
		}
	}
	if int32(len(seen)) != g.NumSegs() {
		t.Fatalf("NumSegs = %d but enumerated %d", g.NumSegs(), len(seen))
	}
	if v, s := Size(g.NX, g.NY, g.Layers); v != int64(g.NumV()) || s != int64(g.NumSegs()) {
		t.Fatalf("Size = %d vertices, %d segments; the graph has %d, %d", v, s, g.NumV(), g.NumSegs())
	}
	for s, what := range seen {
		if (what == "via") != (s >= g.NumRouteSegs()) {
			t.Fatalf("segment %d (%s) on the wrong side of NumRouteSegs %d", s, what, g.NumRouteSegs())
		}
	}
}

func TestSegLayer(t *testing.T) {
	g := testGraph(6, 4, 4)
	if l := g.SegLayer(g.SegH(0, 1, 2)); l != 0 {
		t.Fatalf("SegLayer H0 = %d", l)
	}
	if l := g.SegLayer(g.SegV(3, 2, 1)); l != 3 {
		t.Fatalf("SegLayer V3 = %d", l)
	}
	if l := g.SegLayer(g.ViaSeg(2, 1, 1)); l != 2 {
		t.Fatalf("SegLayer via2 = %d", l)
	}
}

func TestArcsMatchSegBetween(t *testing.T) {
	g := testGraph(5, 6, 3)
	win := g.FullWindow()
	for v := V(0); v < V(g.NumV()); v++ {
		g.Arcs(v, win, func(a Arc) bool {
			seg, via := g.SegBetween(v, a.To)
			if seg != a.Seg || via != a.Via {
				t.Fatalf("arc %d->%d: seg %d/%v vs SegBetween %d/%v", v, a.To, a.Seg, a.Via, seg, via)
			}
			// Reverse arc must exist with the same segment.
			found := false
			g.Arcs(a.To, win, func(b Arc) bool {
				if b.To == v && b.Seg == a.Seg {
					found = true
					return false
				}
				return true
			})
			if !found {
				t.Fatalf("no reverse arc for %d->%d", v, a.To)
			}
			return true
		})
	}
}

func TestArcsRespectWindow(t *testing.T) {
	g := testGraph(8, 8, 2)
	win := geom.Rect{X0: 2, Y0: 2, X1: 5, Y1: 5}
	for x := int32(2); x <= 5; x++ {
		for y := int32(2); y <= 5; y++ {
			for l := int32(0); l < 2; l++ {
				g.Arcs(g.At(x, y, l), win, func(a Arc) bool {
					ax, ay, _ := g.XYL(a.To)
					if !win.Contains(geom.Pt{X: ax, Y: ay}) {
						t.Fatalf("arc escapes window: (%d,%d)", ax, ay)
					}
					return true
				})
			}
		}
	}
}

func TestArcsDegree(t *testing.T) {
	g := testGraph(4, 4, 3) // H,V,H with 1 wire type each
	count := func(v V) int {
		n := 0
		g.Arcs(v, g.FullWindow(), func(Arc) bool { n++; return true })
		return n
	}
	// Interior of middle layer: 2 wire dirs + up + down = 4.
	if got := count(g.At(1, 1, 1)); got != 4 {
		t.Fatalf("middle layer degree = %d want 4", got)
	}
	// Corner of bottom H layer: +x only, + up via = 2.
	if got := count(g.At(0, 0, 0)); got != 2 {
		t.Fatalf("corner degree = %d want 2", got)
	}
	// Top layer H interior: ±x + down = 3.
	if got := count(g.At(1, 1, 2)); got != 3 {
		t.Fatalf("top layer degree = %d want 3", got)
	}
}

func TestCapacityInit(t *testing.T) {
	g := testGraph(5, 5, 3)
	if g.Cap[g.SegH(0, 2, 1)] != 10 {
		t.Fatal("route cap not initialized")
	}
	if g.Cap[g.ViaSeg(1, 2, 2)] != 20 {
		t.Fatal("via cap not initialized")
	}
}

func TestCostsLookup(t *testing.T) {
	g := testGraph(5, 5, 2)
	c := NewCosts(g)
	var wireArc, viaArc Arc
	g.Arcs(g.At(1, 1, 0), g.FullWindow(), func(a Arc) bool {
		if a.Via {
			viaArc = a
		} else {
			wireArc = a
		}
		return true
	})
	if got := c.ArcCost(wireArc); got != 1 {
		t.Fatalf("wire cost = %v", got)
	}
	if got := c.ArcDelay(wireArc); got != 10 {
		t.Fatalf("wire delay = %v", got)
	}
	if got := c.ArcCost(viaArc); got != 0.5 {
		t.Fatalf("via cost = %v", got)
	}
	if got := c.ArcDelay(viaArc); got != 2 {
		t.Fatalf("via delay = %v", got)
	}
	c.Mult[wireArc.Seg] = 3
	if got := c.ArcCost(wireArc); got != 3 {
		t.Fatalf("scaled wire cost = %v", got)
	}
	if c.MinCostPerGCell() != 1 || c.MinDelayPerGCell() != 10 {
		t.Fatalf("min bounds %v %v", c.MinCostPerGCell(), c.MinDelayPerGCell())
	}
}

func TestWindowRoundTrip(t *testing.T) {
	g := testGraph(9, 7, 3)
	r := geom.Rect{X0: 2, Y0: 1, X1: 6, Y1: 5}
	w := g.NewWindow(r)
	if w.Size() != 5*5*3 {
		t.Fatalf("window size %d", w.Size())
	}
	seen := map[int32]bool{}
	for l := int32(0); l < 3; l++ {
		for y := r.Y0; y <= r.Y1; y++ {
			for x := r.X0; x <= r.X1; x++ {
				v := g.At(x, y, l)
				idx := w.Index(v)
				if idx < 0 || idx >= w.Size() {
					t.Fatalf("index out of range: %d", idx)
				}
				if seen[idx] {
					t.Fatalf("duplicate window index %d", idx)
				}
				seen[idx] = true
				if w.Vertex(idx) != v {
					t.Fatalf("Vertex(Index(%d)) = %d", v, w.Vertex(idx))
				}
			}
		}
	}
	if w.Index(g.At(1, 3, 0)) != -1 || w.Index(g.At(7, 3, 1)) != -1 {
		t.Fatal("outside vertices should map to -1")
	}
}

// maxInstanceVertices is internal/service's cap on nx·ny·layers of a
// solve request: the largest window a request can make.
const maxInstanceVertices = 1 << 24

// decodeRef is Window.XYL as it was, with / and %.
func decodeRef(w Window, idx int32) (x, y, l int32) {
	t := idx / w.w
	return idx%w.w + w.R.X0, t%w.h + w.R.Y0, t / w.h
}

// windowOf is the window over a w×h rectangle at (x0, y0) of a graph of
// the given layer count; NewWindow reads no more of the graph than its
// sizes.
func windowOf(x0, y0, w, h, layers int32) Window {
	g := &Graph{NX: x0 + w, NY: y0 + h, Layers: make([]Layer, layers)}
	return g.NewWindow(geom.Rect{X0: x0, Y0: y0, X1: x0 + w - 1, Y1: y0 + h - 1})
}

// TestWindowDecodeExact holds XYL's multiply-shift decode to / and %:
// on every index of every window with W and H in 1..130 and 1 to 9
// layers, and on the boundary indices of the largest windows a solve
// request allows (nx·ny·layers = maxInstanceVertices) and of windows
// whose sides or size reach the int32 vertex ids. XYL reads no layer
// count, so a window decodes its lower layers as every window of the
// same rectangle with fewer layers does: each window's top layer is
// checked in that window, its lower layers in the windows below it.
func TestWindowDecodeExact(t *testing.T) {
	check := func(win Window, idx, x, y, l int32) {
		if gx, gy, gl := win.XYL(idx); gx != x || gy != y || gl != l {
			t.Fatalf("%d×%d×%d window at (%d,%d): index %d decodes to (%d,%d,%d), want (%d,%d,%d)",
				win.w, win.h, win.layers, win.R.X0, win.R.Y0, idx, gx, gy, gl, x, y, l)
		}
	}
	for w := int32(1); w <= 130; w++ {
		for h := int32(1); h <= 130; h++ {
			x0, y0 := w%7, h%5
			for layers := int32(1); layers <= 9; layers++ {
				win, l := windowOf(x0, y0, w, h, layers), layers-1
				idx := l * w * h
				for y := y0; y < y0+h; y++ {
					for x := x0; x < x0+w; x++ {
						if gx, gy, gl := win.XYL(idx); gx != x || gy != y || gl != l {
							check(win, idx, x, y, l)
						}
						idx++
					}
				}
			}
		}
	}

	big := [][3]int32{
		{maxInstanceVertices, 1, 1}, {1, maxInstanceVertices, 1}, {1, 1, maxInstanceVertices},
		{4096, 4096, 1}, {2048, 2048, 4}, {1448, 1448, 8}, {512, 256, 128}, {131072, 1, 128}, {1, 131072, 128},
		{math.MaxInt32, 1, 1}, {1, math.MaxInt32, 1}, {46341, 46340, 1}, {65535, 32767, 1}, {32767, 65535, 1},
	}
	for _, b := range big {
		w, h, layers := b[0], b[1], b[2]
		win := windowOf(0, 0, w, h, layers)
		size := int64(w) * int64(h) * int64(layers)
		for _, at := range []int64{0, int64(w), int64(w) * int64(h), size / 2, size} {
			for d := int64(-2); d <= 2; d++ {
				if idx := at + d; idx >= 0 && idx < size {
					x, y, l := decodeRef(win, int32(idx))
					check(win, int32(idx), x, y, l)
				}
			}
		}
	}
}

func TestArcCapUse(t *testing.T) {
	layers := testLayers(2)
	layers[0].Wires = append(layers[0].Wires, WireType{Name: "wide", CostPerGCell: 2, DelayPerGCell: 5, CapUse: 2})
	g := New(4, 4, layers, 50)
	var got []float32
	g.Arcs(g.At(1, 1, 0), g.FullWindow(), func(a Arc) bool {
		got = append(got, g.ArcCapUse(a))
		return true
	})
	// ±x with 2 wire types each (1 and 2), plus via (1).
	want := map[float32]int{1: 3, 2: 2}
	cnt := map[float32]int{}
	for _, u := range got {
		cnt[u]++
	}
	if cnt[1] != want[1] || cnt[2] != want[2] {
		t.Fatalf("cap uses %v", cnt)
	}
}

func BenchmarkArcsIteration(b *testing.B) {
	g := testGraph(64, 64, 9)
	win := g.FullWindow()
	rng := rand.New(rand.NewPCG(1, 2))
	verts := make([]V, 1024)
	for i := range verts {
		verts[i] = V(rng.Int32N(g.NumV()))
	}
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		g.Arcs(verts[i&1023], win, func(a Arc) bool { sink += int(a.Seg); return true })
	}
	_ = sink
}

func TestSegRect(t *testing.T) {
	g := testGraph(7, 5, 4)
	// Every routing segment's rect must cover exactly the two endpoint
	// gcells; every via segment's rect its single gcell. Enumerate all
	// segment constructors and invert through SegRect.
	for l := int32(0); l < 4; l++ {
		if g.Layers[l].Dir == DirH {
			for y := int32(0); y < g.NY; y++ {
				for x := int32(0); x < g.NX-1; x++ {
					r := g.SegRect(g.SegH(l, y, x))
					want := geom.Rect{X0: x, Y0: y, X1: x + 1, Y1: y}
					if r != want {
						t.Fatalf("SegH(%d,%d,%d) rect %+v want %+v", l, y, x, r, want)
					}
				}
			}
		} else {
			for x := int32(0); x < g.NX; x++ {
				for y := int32(0); y < g.NY-1; y++ {
					r := g.SegRect(g.SegV(l, x, y))
					want := geom.Rect{X0: x, Y0: y, X1: x, Y1: y + 1}
					if r != want {
						t.Fatalf("SegV(%d,%d,%d) rect %+v want %+v", l, x, y, r, want)
					}
				}
			}
		}
		if l+1 < 4 {
			for y := int32(0); y < g.NY; y++ {
				for x := int32(0); x < g.NX; x++ {
					r := g.SegRect(g.ViaSeg(l, x, y))
					want := geom.Rect{X0: x, Y0: y, X1: x, Y1: y}
					if r != want {
						t.Fatalf("ViaSeg(%d,%d,%d) rect %+v want %+v", l, x, y, r, want)
					}
				}
			}
		}
	}
}

// Arc.L is an int8: New builds MaxLayers layers and panics beyond them
// rather than hand out arcs whose layer wraps negative.
func TestNewCapsLayers(t *testing.T) {
	g := testGraph(2, 2, MaxLayers)
	var top Arc
	g.Arcs(g.At(0, 0, MaxLayers-1), g.FullWindow(), func(a Arc) bool {
		top = a
		return true
	})
	if top.L != MaxLayers-2 || !top.Via {
		t.Fatalf("the top layer's via arc %+v, want layer %d", top, MaxLayers-2)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("New built %d layers", MaxLayers+1)
		}
	}()
	testGraph(2, 2, MaxLayers+1)
}

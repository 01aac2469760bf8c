package sparse_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"costdist/internal/dly"
	"costdist/internal/embed"
	"costdist/internal/geom"
	"costdist/internal/grid"
	"costdist/internal/heaps"
	"costdist/internal/nets"
	"costdist/internal/rsmt"
	"costdist/internal/sparse"
)

// stamped is one store under TestStampWrap: the counter it draws its
// stamps from, and round r of its work (counted from the store's first)
// — a Reset or a spread, then operations checked against a reference.
type stamped struct {
	gen   *sparse.Gen
	round func(t *testing.T, r int)
}

// TestStampWrap steps every store that marks its slots with a
// sparse.Gen over the wrap of the 32-bit counter: FlatI32, two
// LabelSlabs sharing a PagePool, embed's spread workspace, and that
// workspace stepping over the wrap in the middle of an embedding DP run
// (the repair rung's case: one stamp per topology edge). Each case runs
// warm rounds, which leave in the store's memory the small stamps the
// counter issues again right after its wrap, parks the counter 0, 1, 2,
// 3 or 7 stamps short of the wrap and runs rounds across it. Every
// round is checked against a Go map — the DP's against a fresh DP, its
// observable being a tree — and the counter must end exactly where the
// stamps issued since parking put it, with 0 skipped.
func TestStampWrap(t *testing.T) {
	cases := []struct {
		name         string
		new          func() stamped
		warm, rounds int
	}{
		{"FlatI32", flatI32Case, 4, 12},
		{"LabelSlab", labelSlabCase, 4, 8},
		{"Spread", spreadCase, 4, 12},
		// One warm run: every run stamps the same cells, so the stale
		// stamps a later warm run left would all lie above those the
		// run across the wrap draws.
		{"DP", dpCase, 1, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, below := range []uint32{0, 1, 2, 3, 7} {
				t.Run(fmt.Sprintf("below%d", below), func(t *testing.T) {
					s := c.new()
					for r := 0; r < c.warm; r++ {
						s.round(t, r)
					}
					perRound := s.gen.Cur() / uint32(c.warm)
					s.gen.Park(math.MaxUint32 - below)
					for r := c.warm; r < c.warm+c.rounds; r++ {
						s.round(t, r)
					}
					issued := perRound * uint32(c.rounds)
					if issued <= below {
						t.Fatalf("%d stamps issued after parking: the counter never wrapped", issued)
					}
					if got, want := s.gen.Cur(), issued-below; got != want {
						t.Fatalf("counter at %d after %d stamps, want %d", got, issued, want)
					}
				})
			}
		})
	}
}

// flatI32Case: even rounds run on a 16-slot universe, so a wrap may hit
// a shrunken store; odd ones grow it back to 316 slots, over slots that
// still carry stamps of earlier rounds (the first odd round sets the
// capacity, so no later Reset reallocates them away).
func flatI32Case() stamped {
	rng := rand.New(rand.NewPCG(11, 13))
	flat := new(sparse.FlatI32)
	return stamped{gen: flat.Gen(), round: func(t *testing.T, r int) {
		n := 16 + 300*(r%2)
		flat.Reset(n)
		m := map[int32]int32{}
		for op := 0; op < 600; op++ {
			k := int32(rng.IntN(n))
			mv, mok := m[k]
			v := int32(rng.IntN(1000))
			switch rng.IntN(3) {
			case 0:
				if fv, fok := flat.Get(k); fok != mok || (fok && fv != mv) {
					t.Fatalf("round %d: Get(%d) (%d,%v) vs (%d,%v)", r, k, fv, fok, mv, mok)
				}
			case 1:
				flat.Put(k, v)
				m[k] = v
			default:
				if !mok {
					m[k] = v
				}
				if got := flat.PutIfAbsent(k, v); got != !mok {
					t.Fatalf("round %d: PutIfAbsent(%d) %v vs %v", r, k, got, !mok)
				}
			}
			if flat.Len() != len(m) {
				t.Fatalf("round %d: Len %d vs %d", r, flat.Len(), len(m))
			}
		}
	}}
}

// labelSlabCase alternates two slabs on one pool, so each Reset draws
// its stamp while the other slab is live: a wrap must drop the pooled
// pages, and a slab stamped before the wrap must not pool its pages when
// it hands them back after it.
func labelSlabCase() stamped {
	rng := rand.New(rand.NewPCG(31, 37))
	const n = 8 * sparse.PageSlots
	pool := new(sparse.PagePool)
	var a, b sparse.LabelSlab
	refA, refB := map[int32]float64{}, map[int32]float64{}
	check := func(t *testing.T, what string, s *sparse.LabelSlab, ref map[int32]float64) {
		t.Helper()
		if s.Len() != len(ref) {
			t.Fatalf("%s: Len %d vs ref %d", what, s.Len(), len(ref))
		}
		for i := int32(0); i < n; i++ {
			want, ok := ref[i]
			got := s.Get(i)
			if ok != (got != nil) || ok && got.Dist != want {
				t.Fatalf("%s: Get(%d) %+v, ref %v (present %v)", what, i, got, want, ok)
			}
		}
	}
	step := func(t *testing.T, s *sparse.LabelSlab, ref map[int32]float64) {
		s.Reset(pool, n)
		clear(ref)
		for op := 0; op < n/2; op++ {
			k := int32(rng.IntN(n))
			l, _ := s.Put(k)
			l.Dist, l.Code = rng.Float64(), uint8(rng.IntN(256))
			ref[k] = l.Dist
		}
		check(t, "after reset", s, ref)
	}
	started := false
	return stamped{gen: pool.Gen(), round: func(t *testing.T, r int) {
		step(t, &a, refA)
		if started {
			check(t, "b across a's reset", &b, refB)
		}
		step(t, &b, refB)
		check(t, "a across b's reset", &a, refA)
		started = true
	}}
}

// spreadCase runs its first spread unbounded over the whole window and
// every later one confined to an inner corridor under growing bounds:
// the cells outside the corridor keep stamp 1, so the corridor spread
// that draws stamp 1 after the wrap meets stale stamps on cells it must
// not find settled or touched.
func spreadCase() stamped {
	g := newGraph(24, 24, 8)
	in := newInstance(g, g.At(0, 0, 0), nil)
	congest(in.C, rand.New(rand.NewPCG(2, 3)))
	win := g.NewWindow(geom.Rect{X0: 2, Y0: 3, X1: 21, Y1: 20})
	seeds := make([]float32, win.Size())
	for i := range seeds {
		seeds[i] = float32(math.Inf(1))
	}
	seeds[win.Index(g.At(5, 5, 0))] = 0
	seeds[win.Index(g.At(18, 17, 2))] = 1.5
	inner := geom.Rect{X0: 4, Y0: 4, X1: 19, Y1: 18}
	ws := new(embed.Workspace)
	ws.Reset(in, win)
	codes := make([]uint8, win.Size())
	return stamped{gen: &ws.Epoch, round: func(t *testing.T, r int) {
		corr, bound := win.R, math.Inf(1)
		if r > 0 {
			corr, bound = inner, 20+15*float64(r%6)
		}
		ws.Spread(seeds, corr, 1, corr, bound, math.MaxInt, -1, codes)
		ref := mapSpread(in, win, seeds, corr, 1, bound)
		for x := int32(0); x < win.Size(); x++ {
			got, ok := ws.Settled(x)
			want, wok := ref[x]
			if ok != wok || ok && got != want {
				t.Fatalf("round %d: cell %d settled %v at %v, reference %v at %v", r, x, ok, got, wok, want)
			}
		}
	}}
}

// mapSpread is the reference of Workspace.Spread with seeds inside and
// moves confined to corr and no budget or target: a Dijkstra over
// grid.Graph.Arcs with its labels in Go maps. It returns the settled
// labels.
func mapSpread(in *nets.Instance, win grid.Window, seeds []float32, corr geom.Rect, w, bound float64) map[int32]float64 {
	dist, done := map[int32]float64{}, map[int32]float64{}
	var h heaps.Lazy[int32]
	for l := int32(0); l < win.Layers(); l++ {
		for y := corr.Y0; y <= corr.Y1; y++ {
			for x := corr.X0; x <= corr.X1; x++ {
				i := win.RectIndex(x, y, l)
				if s := float64(seeds[i]); s < bound {
					dist[i] = s
					h.Push(s, i)
				}
			}
		}
	}
	for h.Len() > 0 {
		k, x := h.Pop()
		if k >= bound {
			break
		}
		if _, ok := done[x]; ok || k > dist[x] {
			continue
		}
		done[x] = k
		in.G.Arcs(win.Vertex(x), corr, func(a grid.Arc) bool {
			y := win.Index(a.To)
			if _, ok := done[y]; ok {
				return true
			}
			nd := k + in.C.ArcCost(a) + w*in.C.ArcDelay(a)
			if d, ok := dist[y]; nd < bound && (!ok || nd < d) {
				dist[y] = nd
				h.Push(nd, y)
			}
			return true
		})
	}
	return done
}

// dpCase re-embeds a 10-sink RSMT topology over a congested 8-layer grid
// in a repair-sized window with corridors, as the repair rung does: one
// run spreads every topology edge once, so the counter steps over its
// wrap in the middle of a run.
func dpCase() stamped {
	g := newGraph(26, 26, 8)
	rng := rand.New(rand.NewPCG(31, 5))
	sinks := make([]nets.Sink, 10)
	for i := range sinks {
		sinks[i] = nets.Sink{V: g.At(4+rng.Int32N(16), 4+rng.Int32N(16), 0), W: rng.Float64() * 2}
	}
	in := newInstance(g, g.At(12, 12, 0), sinks)
	in.DBif = 2
	congest(in.C, rng)
	topo, win := rsmt.Build(in.TermPts()), in.DefaultWindow(2)
	lim := embed.Limits{Halo: 2, Bound: math.Inf(1), Settles: math.MaxInt, Cells: math.MaxInt64}
	var fresh embed.DP
	want, wantEst, wantErr := fresh.Run(in, topo, win, lim)
	dp := new(embed.DP)
	return stamped{gen: &dp.Epoch, round: func(t *testing.T, r int) {
		if wantErr != nil {
			t.Fatal(wantErr)
		}
		got, est, err := dp.Run(in, topo, win, lim)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if !slices.Equal(got.Steps, want.Steps) || est != wantEst {
			t.Fatalf("round %d: estimate %v (%d steps), fresh DP %v (%d steps)", r, est, len(got.Steps), wantEst, len(want.Steps))
		}
	}}
}

func newGraph(nx, ny int32, nLayers int) *grid.Graph {
	tech := dly.DefaultTech(nLayers)
	return grid.New(nx, ny, tech.BuildLayers(), tech.GCellUM)
}

func newInstance(g *grid.Graph, root grid.V, sinks []nets.Sink) *nets.Instance {
	return &nets.Instance{G: g, C: grid.NewCosts(g), Root: root, Sinks: sinks, Eta: 0.25, Win: g.FullWindow()}
}

// congest reprices a random third of the segments, as negotiated
// congestion would.
func congest(c *grid.Costs, rng *rand.Rand) {
	for i := range c.Mult {
		if rng.IntN(3) == 0 {
			c.Mult[i] = 1 + rng.Float32()*9
		}
	}
}

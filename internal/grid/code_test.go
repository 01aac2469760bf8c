package grid

import (
	"math/rand/v2"
	"testing"

	"costdist/internal/geom"
)

// TestPredInvertsEveryMove is the predecessor code's contract with both
// kernels that write it. On random windows over H/V stacks with 1–3 wire
// types a layer, every move into a cell — a wire step toward the lower
// or the higher coordinate per wire type, a via up or down, exactly the
// arcs Graph.Arcs yields inside the window — has its own code, and that
// code decodes back to the move's origin index and to the arc Arcs
// yields. Every other code decodes to ok=false: a move from off the
// window, from off the layer stack (a via up into the bottom layer, a
// via down into the top one) or along a wire type past the layer
// (255 on any layer of this stack). The seed code decodes to index -1.
func TestPredInvertsEveryMove(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 1))
	type move struct {
		from int32
		arc  Arc
	}
	decoded := map[string]int{}
	for it := 0; it < 60; it++ {
		layers := testLayers(1 + rng.IntN(5))
		for l := range layers {
			if it%2 == 1 {
				layers[l].Dir = 1 - layers[l].Dir
			}
			layers[l].Wires = make([]WireType, 1+rng.IntN(3))
			for wt := range layers[l].Wires {
				layers[l].Wires[wt] = WireType{CostPerGCell: float64(1 + wt), DelayPerGCell: float64(10 - wt), CapUse: 1}
			}
		}
		g := New(2+rng.Int32N(7), 2+rng.Int32N(7), layers, 50)
		x0, y0 := rng.Int32N(g.NX), rng.Int32N(g.NY)
		win := g.NewWindow(geom.Rect{X0: x0, Y0: y0, X1: x0 + rng.Int32N(g.NX-x0), Y1: y0 + rng.Int32N(g.NY-y0)})

		into := make([]map[uint8]move, win.Size())
		for y := range into {
			into[y] = map[uint8]move{}
		}
		for x := int32(0); x < win.Size(); x++ {
			v := win.Vertex(x)
			fx, fy, fl := g.XYL(v)
			g.Arcs(v, win.R, func(a Arc) bool {
				tx, ty, tl := g.XYL(a.To)
				var code uint8
				switch {
				case a.Via && tl > fl:
					code = CodeViaUp
				case a.Via:
					code = CodeViaDown
				case tx > fx || ty > fy:
					code = WireCode(int(a.WT), 1)
				default:
					code = WireCode(int(a.WT), 0)
				}
				y := win.Index(a.To)
				if prev, dup := into[y][code]; dup || code == CodeSeed {
					t.Fatalf("it %d: moves %d→%d %+v and %d→%d %+v share code %d", it, prev.from, y, prev.arc, x, y, a, code)
				}
				into[y][code] = move{x, a}
				return true
			})
		}

		for y := int32(0); y < win.Size(); y++ {
			for c := 0; c < 256; c++ {
				code := uint8(c)
				x, a, ok := g.Pred(win, code, y)
				m, written := into[y][code]
				switch {
				case code == CodeSeed:
					if !ok || x != -1 {
						t.Fatalf("it %d: seed code at %d decodes to %d (ok %v)", it, y, x, ok)
					}
				case written:
					if !ok || x != m.from || a != m.arc {
						t.Fatalf("it %d: code %d at %d decodes to %d %+v (ok %v), the move was %d %+v", it, code, y, x, a, ok, m.from, m.arc)
					}
					kind := "wire"
					if a.Via {
						kind = "via"
					}
					decoded[kind]++
				case ok:
					t.Fatalf("it %d: code %d at %d, which no move writes, decodes to %d %+v", it, code, y, x, a)
				default:
					decoded["refused"]++
				}
			}
		}
	}
	for _, kind := range []string{"wire", "via", "refused"} {
		if decoded[kind] < 100 {
			t.Errorf("only %d decodes of kind %q", decoded[kind], kind)
		}
	}
}

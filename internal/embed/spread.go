package embed

import (
	"math"

	"costdist/internal/geom"
	"costdist/internal/grid"
	"costdist/internal/heaps"
	"costdist/internal/nets"
)

// Workspace is the label state of Spread over one grid.Window, stamped
// with an epoch so a new spread never clears O(window) memory. Spread
// is the one Dijkstra of the fixed-topology embedding DP, whether DP
// runs it over a whole routing window (Embed) or over the corridors of
// a repair window (package reembed). Not safe for concurrent use.
type Workspace struct {
	// dist[x] is the settled label of window index x where
	// settled[x] == Epoch, the stamp of the latest spread. pred and parc
	// (predecessor index, -1 at a seed, and the arc taken from it) are
	// written by targeted spreads only: an exhaustive spread feeds a DP
	// table, which reads nothing but dist.
	dist             []float64
	pred             []int32
	parc             []grid.Arc
	settled, touched []uint32
	Epoch            uint32
	// Settles counts settled labels over the workspace's lifetime: the
	// deterministic work count.
	Settles int

	heap heaps.Lazy[int32]
	in   *nets.Instance
	win  grid.Window
}

// Reset points the workspace at window win of in's graph, growing it
// when the window is larger than any it has served.
func (ws *Workspace) Reset(in *nets.Instance, win grid.Window) {
	n := int(win.Size())
	if cap(ws.dist) < n {
		ws.dist = make([]float64, n)
		ws.pred = make([]int32, n)
		ws.parc = make([]grid.Arc, n)
		ws.settled = make([]uint32, n)
		ws.touched = make([]uint32, n)
		ws.Epoch = 0
	}
	ws.dist, ws.pred, ws.parc = ws.dist[:n], ws.pred[:n], ws.parc[:n]
	ws.settled, ws.touched = ws.settled[:n], ws.touched[:n]
	ws.in, ws.win = in, win
}

// Spread runs a multi-source Dijkstra under the metric c(e) + w·d(e),
// seeded with the finite cells of the table seeds inside seedRect, and
// never leaves the corridor corr (both rectangles lie inside the
// window; every layer is open). Labels at or above bound are pruned.
// With target ≥ 0 the search stops as soon as that window index
// settles, with target -1 it exhausts the corridor. It reports false,
// leaving the workspace incomplete, when it would settle more than
// budget labels.
//
// Arcs are relaxed in grid.Graph.Arcs' order — along the layer's
// direction toward the lower then the higher coordinate, wire types in
// layer order, then the via down and the via up — and a label is
// k + mult·cost + w·delay in exactly that association, so heap
// contents, settle order and every label are those of a search driven
// by Arcs, Costs.ArcCost and Costs.ArcDelay.
func (ws *Workspace) Spread(seeds []float32, seedRect geom.Rect, w float64, corr geom.Rect, bound float64, budget int, target int32) bool {
	if ws.Epoch == math.MaxUint32 {
		// Stamp space exhausted: pay one clear, restart the stamps.
		clear(ws.settled[:cap(ws.settled)])
		clear(ws.touched[:cap(ws.touched)])
		ws.Epoch = 0
	}
	ws.Epoch++
	ep, h := ws.Epoch, &ws.heap
	dist, pred, parc, settled, touched := ws.dist, ws.pred, ws.parc, ws.settled, ws.touched
	g, mult, win := ws.in.G, ws.in.C.Mult, ws.win
	rowW, rowH := win.R.W(), win.R.H()
	plane, nx, nxy := rowW*rowH, grid.V(g.NX), grid.V(g.NX*g.NY)
	top := win.Layers() - 1
	track := target >= 0

	h.Reset()
	seedW := seedRect.W()
	for l := int32(0); l <= top; l++ {
		for y := seedRect.Y0; y <= seedRect.Y1; y++ {
			x0 := win.RectIndex(seedRect.X0, y, l)
			for x := x0; x < x0+seedW; x++ {
				if s := seeds[x]; s < inf32 && float64(s) < bound {
					dist[x], pred[x], touched[x] = float64(s), -1, ep
					h.Push(dist[x], x)
				}
			}
		}
	}

	count, ok := 0, true
	for h.Len() > 0 {
		k, x := h.Pop()
		if k >= bound {
			break // keys are monotone: everything left prices out
		}
		if settled[x] == ep || k > dist[x] {
			continue
		}
		settled[x] = ep
		count++
		if count > budget {
			ok = false
			break
		}
		if x == target {
			break
		}
		t := x / rowW
		l := t / rowH
		gx, gy := x-t*rowW+win.R.X0, t-l*rowH+win.R.Y0
		v := g.At(gx, gy, l)
		lay := &g.Layers[l]

		// Along the layer: the step toward the lower coordinate, then
		// the step toward the higher one, each once per wire type.
		stepX, stepV, seg := rowW, nx, g.SegV(l, gx, gy)
		lo, hi := gy > corr.Y0, gy < corr.Y1
		if lay.Dir == grid.DirH {
			stepX, stepV, seg = 1, 1, g.SegH(l, gy, gx)
			lo, hi = gx > corr.X0, gx < corr.X1
		}
		for d := 0; d < 2; d++ {
			y, to, sg, open := x-stepX, v-stepV, seg-1, lo
			if d == 1 {
				y, to, sg, open = x+stepX, v+stepV, seg, hi
			}
			if !open || settled[y] == ep {
				continue
			}
			m := float64(mult[sg])
			for wt := range lay.Wires {
				wire := &lay.Wires[wt]
				nd := k + m*wire.CostPerGCell + w*wire.DelayPerGCell
				if nd < bound && (touched[y] != ep || nd < dist[y]) {
					dist[y], touched[y] = nd, ep
					if track {
						pred[y], parc[y] = x, grid.Arc{To: to, Seg: sg, L: int8(l), WT: int8(wt)}
					}
					h.Push(nd, y)
				}
			}
		}
		// The via below (between layers l-1 and l), then the via above.
		for vl := l - 1; vl <= l; vl++ {
			if vl < 0 || vl >= top {
				continue
			}
			y, to := x+plane, v+nxy
			if vl < l {
				y, to = x-plane, v-nxy
			}
			if settled[y] == ep {
				continue
			}
			sg, via := g.ViaSeg(vl, gx, gy), &g.Layers[vl]
			nd := k + float64(mult[sg])*via.ViaCost + w*via.ViaDelay
			if nd < bound && (touched[y] != ep || nd < dist[y]) {
				dist[y], touched[y] = nd, ep
				if track {
					pred[y], parc[y] = x, grid.Arc{To: to, Seg: sg, L: int8(vl), WT: -1, Via: true}
				}
				h.Push(nd, y)
			}
		}
	}
	ws.Settles += count
	return ok
}

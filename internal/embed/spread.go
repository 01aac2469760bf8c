package embed

import (
	"math"

	"costdist/internal/geom"
	"costdist/internal/grid"
	"costdist/internal/heaps"
	"costdist/internal/nets"
	"costdist/internal/sparse"
)

// Workspace is the label state of Spread over one grid.Window, stamped
// with an epoch so a new spread never clears O(window) memory. Spread
// is the one Dijkstra of the fixed-topology embedding DP, whether DP
// runs it over a whole routing window (Embed) or over the corridors of
// a repair window (package reembed). Not safe for concurrent use.
type Workspace struct {
	// dist[x] is the settled label of window index x where
	// settled[x] == Epoch.Cur(), the stamp of the latest spread.
	// Predecessors are not kept here: Spread writes them, one grid
	// predecessor code a label, into a table of its caller's.
	dist             []float64
	settled, touched []uint32
	Epoch            sparse.Gen
	// Settles counts settled labels over the workspace's lifetime: the
	// deterministic work count.
	Settles int

	heap heaps.ByIndex
	in   *nets.Instance
	win  grid.Window
}

// Reset points the workspace at window win of in's graph, growing it
// when the window is larger than any it has served.
func (ws *Workspace) Reset(in *nets.Instance, win grid.Window) {
	n := int(win.Size())
	if cap(ws.dist) < n {
		ws.dist = make([]float64, n)
		ws.settled = make([]uint32, n)
		ws.touched = make([]uint32, n)
	}
	ws.dist, ws.settled, ws.touched = ws.dist[:n], ws.settled[:n], ws.touched[:n]
	ws.in, ws.win = in, win
}

// Spread runs a multi-source Dijkstra under the metric c(e) + w·d(e),
// seeded with the finite cells of the table seeds inside seedRect, and
// never leaves the corridor corr (both rectangles lie inside the
// window; every layer is open). Labels at or above bound are pruned.
// With target ≥ 0 the search stops as soon as that window index
// settles, with target -1 it exhausts the corridor. It reports false,
// leaving the workspace incomplete, when it would settle more than
// budget labels. Every label it writes, it writes the predecessor code
// of into codes (a table over the window, like seeds); the codes of the
// settled cells lead back to a seed.
//
// Each cell is queued at most once (heaps.ByIndex): a relaxation inserts
// a cell untouched in this spread and lowers the key of a touched one,
// and a touched cell that is not settled is in the queue. Cells settle in
// (label, window index) order, so among equal labels the lower index
// settles first, and the settle order is a function of the labels alone.
// Arcs are relaxed in grid.Graph.Arcs' order — along the layer's
// direction toward the lower then the higher coordinate, wire types in
// layer order, then the via down and the via up —, a label is
// k + mult·cost + w·delay in exactly that association, and a label is
// replaced only by a strictly smaller one, so the settled set, every
// label and every code are those of a search driven by Arcs,
// Costs.ArcCost and Costs.ArcDelay that pops in that order.
func (ws *Workspace) Spread(seeds []float32, seedRect geom.Rect, w float64, corr geom.Rect, bound float64, budget int, target int32, codes []uint8) bool {
	ep, wrapped := ws.Epoch.Next()
	if wrapped {
		clear(ws.settled[:cap(ws.settled)])
		clear(ws.touched[:cap(ws.touched)])
	}
	h := &ws.heap
	dist, settled, touched := ws.dist, ws.settled, ws.touched
	g, mult, win := ws.in.G, ws.in.C.Mult, ws.win
	rowW, rowH := win.R.W(), win.R.H()
	plane, top := rowW*rowH, win.Layers()-1

	h.Reset(len(dist))
	seedW := seedRect.W()
	for l := int32(0); l <= top; l++ {
		for y := seedRect.Y0; y <= seedRect.Y1; y++ {
			x0 := win.RectIndex(seedRect.X0, y, l)
			for x := x0; x < x0+seedW; x++ {
				if s := seeds[x]; s < inf32 && float64(s) < bound {
					dist[x], codes[x], touched[x] = float64(s), grid.CodeSeed, ep
					h.Insert(dist[x], x)
				}
			}
		}
	}

	// relax offers cell y, not settled, the label nd with predecessor
	// code: it queues an untouched cell and lowers a touched one, whose
	// label is below bound, when nd is strictly smaller.
	relax := func(y int32, nd float64, code uint8) {
		if touched[y] != ep {
			if nd < bound {
				dist[y], touched[y], codes[y] = nd, ep, code
				h.Insert(nd, y)
			}
		} else if nd < dist[y] {
			dist[y], codes[y] = nd, code
			h.Decrease(nd, y)
		}
	}

	count, ok := 0, true
	for h.Len() > 0 {
		k, x := h.Pop() // below bound: no label at or above it is queued
		settled[x] = ep
		count++
		if count > budget {
			ok = false
			break
		}
		if x == target {
			break
		}
		gx, gy, l := win.XYL(x)
		lay := &g.Layers[l]

		// Along the layer: the step toward the lower coordinate, then
		// the step toward the higher one, each at the cheapest of the
		// wire types, the first in layer order among equals — the
		// label and code that offering them one by one would leave.
		stepX, seg := rowW, g.SegV(l, gx, gy)
		lo, hi := gy > corr.Y0, gy < corr.Y1
		if lay.Dir == grid.DirH {
			stepX, seg = 1, g.SegH(l, gy, gx)
			lo, hi = gx > corr.X0, gx < corr.X1
		}
		for d := 0; d < 2; d++ {
			y, sg, open := x-stepX, seg-1, lo
			if d == 1 {
				y, sg, open = x+stepX, seg, hi
			}
			if !open || settled[y] == ep {
				continue
			}
			m, nd, wbest := float64(mult[sg]), math.Inf(1), 0
			for wt := range lay.Wires {
				wire := &lay.Wires[wt]
				if c := k + m*wire.CostPerGCell + w*wire.DelayPerGCell; c < nd {
					nd, wbest = c, wt
				}
			}
			relax(y, nd, grid.WireCode(wbest, d))
		}
		// The via below (between layers l-1 and l), then the via above.
		for vl := l - 1; vl <= l; vl++ {
			if vl < 0 || vl >= top {
				continue
			}
			y, code := x+plane, grid.CodeViaUp
			if vl < l {
				y, code = x-plane, grid.CodeViaDown
			}
			if settled[y] == ep {
				continue
			}
			sg, via := g.ViaSeg(vl, gx, gy), &g.Layers[vl]
			relax(y, k+float64(mult[sg])*via.ViaCost+w*via.ViaDelay, code)
		}
	}
	ws.Settles += count
	return ok
}

// Settled returns the label of window index x if the latest spread
// settled it.
func (ws *Workspace) Settled(x int32) (float64, bool) {
	if ws.settled[x] != ws.Epoch.Cur() {
		return 0, false
	}
	return ws.dist[x], true
}

package embed

import (
	"fmt"
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
	// settled[x] == Epoch, the stamp of the latest spread. Predecessors
	// are not kept here: Spread writes them, one byte a label, into a
	// table of its caller's (see the code constants).
	dist             []float64
	settled, touched []uint32
	Epoch            uint32
	// Settles counts settled labels over the workspace's lifetime: the
	// deterministic work count.
	Settles int

	heap heaps.Lazy[int32]
	in   *nets.Instance
	win  grid.Window
}

// A predecessor code says how the spread reached a labelled cell: as a
// seed, or over one arc from the neighbouring cell the code names — so
// the predecessor's index and the grid.Arc follow from the cell's own
// coordinates (Pred) and a table of codes costs one byte a cell where
// index and arc cost sixteen.
const (
	codeSeed    = 0
	codeViaDown = 1 // by the via from the cell one layer up
	codeViaUp   = 2 // by the via from the cell one layer down
	// codeWire + 2·wt + dir: along the layer with wire type wt, stepping
	// toward the lower (dir 0) or the higher (dir 1) coordinate.
	codeWire = 3
	// maxWireTypes is the number of wire types per layer a code can name.
	maxWireTypes = (256 - codeWire) / 2
)

// checkCodeWidth reports a layer stack with more wire types on a layer
// than a predecessor code can name.
func checkCodeWidth(g *grid.Graph) error {
	for l := range g.Layers {
		if n := len(g.Layers[l].Wires); n > maxWireTypes {
			return fmt.Errorf("embed: layer %d has %d wire types, predecessor codes hold %d", l, n, maxWireTypes)
		}
	}
	return nil
}

// Reset points the workspace at window win of in's graph, growing it
// when the window is larger than any it has served.
func (ws *Workspace) Reset(in *nets.Instance, win grid.Window) {
	n := int(win.Size())
	if cap(ws.dist) < n {
		ws.dist = make([]float64, n)
		ws.settled = make([]uint32, n)
		ws.touched = make([]uint32, n)
		ws.Epoch = 0
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
// Arcs are relaxed in grid.Graph.Arcs' order — along the layer's
// direction toward the lower then the higher coordinate, wire types in
// layer order, then the via down and the via up — and a label is
// k + mult·cost + w·delay in exactly that association, so heap
// contents, settle order and every label are those of a search driven
// by Arcs, Costs.ArcCost and Costs.ArcDelay.
func (ws *Workspace) Spread(seeds []float32, seedRect geom.Rect, w float64, corr geom.Rect, bound float64, budget int, target int32, codes []uint8) bool {
	if ws.Epoch == math.MaxUint32 {
		// Stamp space exhausted: pay one clear, restart the stamps.
		clear(ws.settled[:cap(ws.settled)])
		clear(ws.touched[:cap(ws.touched)])
		ws.Epoch = 0
	}
	ws.Epoch++
	ep, h := ws.Epoch, &ws.heap
	dist, settled, touched := ws.dist, ws.settled, ws.touched
	g, mult, win := ws.in.G, ws.in.C.Mult, ws.win
	rowW, rowH := win.R.W(), win.R.H()
	plane, top := rowW*rowH, win.Layers()-1

	h.Reset()
	seedW := seedRect.W()
	for l := int32(0); l <= top; l++ {
		for y := seedRect.Y0; y <= seedRect.Y1; y++ {
			x0 := win.RectIndex(seedRect.X0, y, l)
			for x := x0; x < x0+seedW; x++ {
				if s := seeds[x]; s < inf32 && float64(s) < bound {
					dist[x], codes[x], touched[x] = float64(s), codeSeed, ep
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
		lay := &g.Layers[l]

		// Along the layer: the step toward the lower coordinate, then
		// the step toward the higher one, each once per wire type.
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
			m := float64(mult[sg])
			for wt := range lay.Wires {
				wire := &lay.Wires[wt]
				nd := k + m*wire.CostPerGCell + w*wire.DelayPerGCell
				if nd < bound && (touched[y] != ep || nd < dist[y]) {
					dist[y], touched[y], codes[y] = nd, ep, uint8(codeWire+2*wt+d)
					h.Push(nd, y)
				}
			}
		}
		// The via below (between layers l-1 and l), then the via above.
		for vl := l - 1; vl <= l; vl++ {
			if vl < 0 || vl >= top {
				continue
			}
			y, code := x+plane, uint8(codeViaUp)
			if vl < l {
				y, code = x-plane, codeViaDown
			}
			if settled[y] == ep {
				continue
			}
			sg, via := g.ViaSeg(vl, gx, gy), &g.Layers[vl]
			nd := k + float64(mult[sg])*via.ViaCost + w*via.ViaDelay
			if nd < bound && (touched[y] != ep || nd < dist[y]) {
				dist[y], touched[y], codes[y] = nd, ep, code
				h.Push(nd, y)
			}
		}
	}
	ws.Settles += count
	return ok
}

// Pred decodes the predecessor code of window index y: the index x the
// label of y was relaxed from and the arc taken from x to y, or x = -1
// at a seed. It reports false for a code no relaxation into y writes —
// y was not labelled by the spread that filled codes.
func (ws *Workspace) Pred(codes []uint8, y int32) (x int32, a grid.Arc, ok bool) {
	g, win := ws.in.G, ws.win
	a.To = win.Vertex(y)
	gx, gy, l := g.XYL(a.To)
	rowW, plane := win.R.W(), win.R.W()*win.R.H()
	code := int(codes[y])
	switch code {
	case codeSeed:
		return -1, grid.Arc{}, true
	case codeViaDown:
		a.Seg, a.L, a.WT, a.Via = g.ViaSeg(l, gx, gy), int8(l), -1, true
		return y + plane, a, l < win.Layers()-1
	case codeViaUp:
		if l == 0 {
			return 0, a, false
		}
		a.Seg, a.L, a.WT, a.Via = g.ViaSeg(l-1, gx, gy), int8(l-1), -1, true
		return y - plane, a, true
	}
	// The kernel's wire step read backwards: a step toward the lower
	// coordinate c came from the higher neighbour over the segment that
	// starts at y, one toward the higher from the lower neighbour over
	// the segment that ends at y.
	lay := &g.Layers[l]
	a.L, a.WT = int8(l), int8((code-codeWire)>>1)
	stepX, c, c0, c1 := rowW, gy, win.R.Y0, win.R.Y1
	if lay.Dir == grid.DirH {
		stepX, c, c0, c1 = 1, gx, win.R.X0, win.R.X1
	}
	x, ok = y+stepX, c < c1
	if (code-codeWire)&1 == 1 {
		x, c, ok = y-stepX, c-1, c > c0
	}
	a.Seg = g.SegV(l, gx, c)
	if lay.Dir == grid.DirH {
		a.Seg = g.SegH(l, gy, c)
	}
	return x, a, ok && int(a.WT) < len(lay.Wires)
}

package grid

import "fmt"

// A predecessor code is the one byte a label-setting search over a
// Window keeps per labelled cell to say how it reached the cell: as a
// seed, or over one arc from the neighbouring cell the code names. The
// predecessor's window index and the Arc follow from the cell's own
// coordinates (Graph.Pred), so a label carries one byte where an index
// and an arc cost sixteen. Both Dijkstra kernels write these codes: the
// per-component searches of package core into their labels, the spread
// of package embed into its per-edge tables.
const (
	CodeSeed    uint8 = 0
	CodeViaDown uint8 = 1 // by the via from the cell one layer up
	CodeViaUp   uint8 = 2 // by the via from the cell one layer down
	// CodeWire + 2·wt + dir (WireCode): along the layer with wire type
	// wt, stepping toward the lower (dir 0) or the higher (dir 1)
	// coordinate.
	CodeWire uint8 = 3
	// MaxWireTypes is the number of wire types per layer a code can name.
	MaxWireTypes = (256 - int(CodeWire)) / 2
)

// WireCode is the code of a step along the layer with wire type wt
// toward the lower (dir 0) or the higher (dir 1) coordinate.
func WireCode(wt, dir int) uint8 { return CodeWire + uint8(2*wt+dir) }

// CheckCodeWidth reports a layer stack with more wire types on a layer
// than a predecessor code can name; a search over such a stack would
// alias wire types onto other codes.
func (g *Graph) CheckCodeWidth() error {
	for l := range g.Layers {
		if n := len(g.Layers[l].Wires); n > MaxWireTypes {
			return fmt.Errorf("grid: layer %d has %d wire types, predecessor codes hold %d", l, n, MaxWireTypes)
		}
	}
	return nil
}

// Pred decodes code, the predecessor code of window index y: the index
// x the label of y was relaxed from and the arc taken from x to y, or
// x = -1 at a seed. It reports false for a code no move into y writes —
// one from off the window or off the layer stack, or naming a wire type
// the layer lacks.
func (g *Graph) Pred(win Window, code uint8, y int32) (x int32, a Arc, ok bool) {
	gx, gy, l := win.XYL(y)
	a.To = g.At(gx, gy, l)
	switch code {
	case CodeSeed:
		return -1, Arc{}, true
	case CodeViaDown:
		if l+1 >= win.layers {
			return 0, Arc{}, false
		}
		a.Seg, a.L, a.WT, a.Via = g.ViaSeg(l, gx, gy), int8(l), -1, true
		return y + win.w*win.h, a, true
	case CodeViaUp:
		if l == 0 {
			return 0, Arc{}, false
		}
		a.Seg, a.L, a.WT, a.Via = g.ViaSeg(l-1, gx, gy), int8(l-1), -1, true
		return y - win.w*win.h, a, true
	}
	lay := &g.Layers[l]
	wt := int(code-CodeWire) >> 1
	if wt >= len(lay.Wires) {
		return 0, Arc{}, false
	}
	// The step read backwards: one toward the lower coordinate c came
	// from the higher neighbour over the segment that starts at y, one
	// toward the higher from the lower neighbour over the segment that
	// ends at y.
	step, c, c0, c1 := win.w, gy, win.R.Y0, win.R.Y1
	if lay.Dir == DirH {
		step, c, c0, c1 = 1, gx, win.R.X0, win.R.X1
	}
	if (code-CodeWire)&1 == 0 {
		if c >= c1 {
			return 0, Arc{}, false
		}
		x = y + step
	} else {
		if c <= c0 {
			return 0, Arc{}, false
		}
		x, c = y-step, c-1
	}
	a.L, a.WT = int8(l), int8(wt)
	if lay.Dir == DirH {
		a.Seg = g.SegH(l, gy, c)
	} else {
		a.Seg = g.SegV(l, gx, c)
	}
	return x, a, true
}

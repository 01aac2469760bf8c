// Package grid models the 3D global routing graph G from the paper: a
// stack of routing layers over an NX×NY gcell grid. Every layer has a
// preferred direction and one or more wire types (width/spacing
// configurations); a wire type on a layer is a parallel edge with its own
// congestion cost and linear-model delay, exactly as described in §I.
// Adjacent layers are connected by vias.
//
// Edges are grouped into segments: a segment is one gcell-to-gcell
// adjacency (on a layer, or a via between two layers) and carries the
// routing capacity that congestion pricing acts on. Parallel wire types
// share their segment's capacity but consume different amounts of it.
package grid

import (
	"math"
	"math/bits"

	"costdist/internal/geom"
)

// V is a vertex id in the routing graph: v = (l*NY + y)*NX + x.
type V int32

// Dir is a layer's preferred routing direction.
type Dir uint8

// Preferred directions. Horizontal layers route along x, vertical along y.
const (
	DirH Dir = iota
	DirV
)

func (d Dir) String() string {
	if d == DirH {
		return "H"
	}
	return "V"
}

// WireType is one width/spacing configuration available on a layer. It is
// a parallel edge in G with individual cost and delay (paper §I).
type WireType struct {
	Name string
	// CostPerGCell is the congestion-free base cost of one gcell step,
	// scaled by the segment's congestion multiplier at query time.
	CostPerGCell float64
	// DelayPerGCell is the linear-model delay of one gcell step in ps
	// (derived from the buffered-wire model in package dly).
	DelayPerGCell float64
	// CapUse is the capacity consumed per gcell step (tracks used).
	CapUse float32
}

// Layer is one routing layer.
type Layer struct {
	Name  string
	Dir   Dir
	Wires []WireType
	// SegCap is the routing capacity of each segment on this layer.
	SegCap float32
	// ViaCap, ViaCost, ViaDelay and ViaCapUse describe the via from this
	// layer to the one above. They are unused on the top layer.
	ViaCap    float32
	ViaCost   float64
	ViaDelay  float64
	ViaCapUse float32
}

// Graph is the global routing graph.
type Graph struct {
	NX, NY int32
	Layers []Layer
	// LenUM is the physical gcell pitch in µm (used to convert wirelength
	// to meters in reports).
	LenUM float64

	segOff  []int32 // len L+1: routing segment id offsets per layer
	viaBase int32   // first via segment id
	viaOff  []int32 // len L: via segment offsets per layer pair (l, l+1)
	nSegs   int32
	// Cap is the capacity of every segment (routing and via). Generators
	// may lower entries regionally to model blockages.
	Cap []float32
}

// MaxLayers is the deepest layer stack a Graph holds: an Arc names its
// layer in an int8 (Arc.L), whose indices end at 127.
const MaxLayers = math.MaxInt8 + 1

// New builds a graph of nx×ny gcells with the given layer stack. Segment
// capacities are initialized from the layer definitions.
func New(nx, ny int32, layers []Layer, lenUM float64) *Graph {
	if nx < 1 || ny < 1 || len(layers) == 0 {
		panic("grid: invalid dimensions")
	}
	if len(layers) > MaxLayers {
		panic("grid: more than MaxLayers layers; Arc.L would wrap")
	}
	g := &Graph{NX: nx, NY: ny, Layers: layers, LenUM: lenUM}
	l := int32(len(layers))
	g.segOff = make([]int32, l+1)
	for i := int32(0); i < l; i++ {
		var cnt int32
		if layers[i].Dir == DirH {
			cnt = (nx - 1) * ny
		} else {
			cnt = (ny - 1) * nx
		}
		g.segOff[i+1] = g.segOff[i] + cnt
	}
	g.viaBase = g.segOff[l]
	g.viaOff = make([]int32, l)
	for i := int32(0); i+1 < l; i++ {
		g.viaOff[i] = int32(i) * nx * ny
	}
	g.nSegs = g.viaBase + (l-1)*nx*ny
	g.Cap = make([]float32, g.nSegs)
	for li := int32(0); li < l; li++ {
		for s := g.segOff[li]; s < g.segOff[li+1]; s++ {
			g.Cap[s] = layers[li].SegCap
		}
		if li+1 < l {
			base := g.viaBase + g.viaOff[li]
			for k := int32(0); k < nx*ny; k++ {
				g.Cap[base+k] = layers[li].ViaCap
			}
		}
	}
	return g
}

// Size returns the vertex and segment counts New(nx, ny, layers, …)
// would build, in int64 where they cannot wrap, so that a caller given
// an outside shape can refuse one beyond the int32 ids, or one its data
// does not match, before anything grid-sized is allocated.
func Size(nx, ny int32, layers []Layer) (verts, segs int64) {
	x, y, l := int64(nx), int64(ny), int64(len(layers))
	for i := range layers {
		if layers[i].Dir == DirH {
			segs += (x - 1) * y
		} else {
			segs += (y - 1) * x
		}
	}
	return x * y * l, segs + (l-1)*x*y
}

// LayerDirs renders the per-layer preferred directions as one "H"/"V"
// letter per layer, e.g. "HVHVHVHV" — the layer-stack signature that
// checkpoints store.
func (g *Graph) LayerDirs() string {
	b := make([]byte, len(g.Layers))
	for i := range g.Layers {
		b[i] = g.Layers[i].Dir.String()[0]
	}
	return string(b)
}

// NumV returns the number of vertices.
func (g *Graph) NumV() int32 { return g.NX * g.NY * int32(len(g.Layers)) }

// NumSegs returns the number of segments (routing plus via).
func (g *Graph) NumSegs() int32 { return g.nSegs }

// NumRouteSegs returns the number of routing (non-via) segments.
func (g *Graph) NumRouteSegs() int32 { return g.viaBase }

// At returns the vertex at (x, y, layer l).
func (g *Graph) At(x, y, l int32) V { return V((l*g.NY+y)*g.NX + x) }

// XYL decodes a vertex id.
func (g *Graph) XYL(v V) (x, y, l int32) {
	x = int32(v) % g.NX
	t := int32(v) / g.NX
	y = t % g.NY
	l = t / g.NY
	return
}

// Pt returns the plane position of v.
func (g *Graph) Pt(v V) geom.Pt {
	x, y, _ := g.XYL(v)
	return geom.Pt{X: x, Y: y}
}

// SegLayer returns the layer of a routing segment, or the lower layer of
// a via segment.
func (g *Graph) SegLayer(s int32) int32 {
	if s >= g.viaBase {
		return (s - g.viaBase) / (g.NX * g.NY)
	}
	// Layer counts are tiny (≤ 16): linear scan.
	for l := int32(0); ; l++ {
		if s < g.segOff[l+1] {
			return l
		}
	}
}

// SegRect returns the plane rectangle of gcells a segment touches: both
// endpoint gcells for a routing segment, the single stacked gcell for a
// via segment. Congestion-delta tracking uses it to translate changed
// segments into plane regions for net-window invalidation queries.
func (g *Graph) SegRect(s int32) geom.Rect {
	if s >= g.viaBase {
		k := (s - g.viaBase) % (g.NX * g.NY)
		x, y := k%g.NX, k/g.NX
		return geom.Rect{X0: x, Y0: y, X1: x, Y1: y}
	}
	l := g.SegLayer(s)
	off := s - g.segOff[l]
	if g.Layers[l].Dir == DirH {
		x, y := off%(g.NX-1), off/(g.NX-1)
		return geom.Rect{X0: x, Y0: y, X1: x + 1, Y1: y}
	}
	y, x := off%(g.NY-1), off/(g.NY-1)
	return geom.Rect{X0: x, Y0: y, X1: x, Y1: y + 1}
}

// SegH returns the segment id between (x,y,l) and (x+1,y,l) on a
// horizontal layer.
func (g *Graph) SegH(l, y, x int32) int32 { return g.segOff[l] + y*(g.NX-1) + x }

// SegV returns the segment id between (x,y,l) and (x,y+1,l) on a
// vertical layer.
func (g *Graph) SegV(l, x, y int32) int32 { return g.segOff[l] + x*(g.NY-1) + y }

// ViaSeg returns the via segment id between (x,y,l) and (x,y,l+1).
func (g *Graph) ViaSeg(l, x, y int32) int32 {
	return g.viaBase + g.viaOff[l] + y*g.NX + x
}

// SegBetween returns the segment connecting two adjacent vertices and
// whether it is a via. It panics if u and v are not adjacent.
func (g *Graph) SegBetween(u, v V) (seg int32, via bool) {
	ux, uy, ul := g.XYL(u)
	vx, vy, vl := g.XYL(v)
	switch {
	case ul == vl && uy == vy && (ux-vx == 1 || vx-ux == 1):
		x := min(ux, vx)
		return g.SegH(ul, uy, x), false
	case ul == vl && ux == vx && (uy-vy == 1 || vy-uy == 1):
		y := min(uy, vy)
		return g.SegV(ul, ux, y), false
	case ux == vx && uy == vy && (ul-vl == 1 || vl-ul == 1):
		l := min(ul, vl)
		return g.ViaSeg(l, ux, uy), true
	}
	panic("grid: SegBetween on non-adjacent vertices")
}

// Arc is one traversable edge instance from some vertex to To: a single
// gcell step using wire type WT on layer L, or a via (WT < 0) between
// layers L and L+1.
type Arc struct {
	To  V
	Seg int32
	L   int8
	WT  int8
	Via bool
}

// Arcs calls yield for every arc leaving v whose target stays inside the
// window win (layers are never restricted). Iteration stops early if
// yield returns false.
func (g *Graph) Arcs(v V, win geom.Rect, yield func(a Arc) bool) {
	x, y, l := g.XYL(v)
	lay := &g.Layers[l]
	nw := int8(len(lay.Wires))
	if lay.Dir == DirH {
		if x > win.X0 {
			seg := g.SegH(l, y, x-1)
			to := v - 1
			for wt := int8(0); wt < nw; wt++ {
				if !yield(Arc{To: to, Seg: seg, L: int8(l), WT: wt}) {
					return
				}
			}
		}
		if x < win.X1 {
			seg := g.SegH(l, y, x)
			to := v + 1
			for wt := int8(0); wt < nw; wt++ {
				if !yield(Arc{To: to, Seg: seg, L: int8(l), WT: wt}) {
					return
				}
			}
		}
	} else {
		if y > win.Y0 {
			seg := g.SegV(l, x, y-1)
			to := v - V(g.NX)
			for wt := int8(0); wt < nw; wt++ {
				if !yield(Arc{To: to, Seg: seg, L: int8(l), WT: wt}) {
					return
				}
			}
		}
		if y < win.Y1 {
			seg := g.SegV(l, x, y)
			to := v + V(g.NX)
			for wt := int8(0); wt < nw; wt++ {
				if !yield(Arc{To: to, Seg: seg, L: int8(l), WT: wt}) {
					return
				}
			}
		}
	}
	if l > 0 {
		if !yield(Arc{To: v - V(g.NX*g.NY), Seg: g.ViaSeg(l-1, x, y), L: int8(l - 1), WT: -1, Via: true}) {
			return
		}
	}
	if l+1 < int32(len(g.Layers)) {
		if !yield(Arc{To: v + V(g.NX*g.NY), Seg: g.ViaSeg(l, x, y), L: int8(l), WT: -1, Via: true}) {
			return
		}
	}
}

// FullWindow returns the window covering the whole grid.
func (g *Graph) FullWindow() geom.Rect {
	return geom.Rect{X0: 0, Y0: 0, X1: g.NX - 1, Y1: g.NY - 1}
}

// ArcCapUse returns the capacity units the arc consumes on its segment.
func (g *Graph) ArcCapUse(a Arc) float32 {
	if a.Via {
		return g.Layers[a.L].ViaCapUse
	}
	return g.Layers[a.L].Wires[a.WT].CapUse
}

// Costs provides the cost function c(e) and delay function d(e) for a
// routing state: base costs/delays from the layer stack scaled by a
// per-segment congestion multiplier maintained by the router.
type Costs struct {
	G *Graph
	// Mult is the per-segment congestion price multiplier (≥ MinMult).
	Mult []float32
	// MinMult is a lower bound on Mult entries; future-cost lower bounds
	// rely on it for admissibility.
	MinMult float64

	minWireCost  float64 // min over layers/wires of CostPerGCell
	minWireDelay float64 // min over layers/wires of DelayPerGCell
}

// NewCosts returns a Costs with all multipliers set to 1.
func NewCosts(g *Graph) *Costs {
	c := &Costs{G: g, Mult: make([]float32, g.nSegs), MinMult: 1}
	for i := range c.Mult {
		c.Mult[i] = 1
	}
	c.refreshMins()
	return c
}

func (c *Costs) refreshMins() {
	c.minWireCost = 1e300
	c.minWireDelay = 1e300
	for li := range c.G.Layers {
		for _, w := range c.G.Layers[li].Wires {
			if w.CostPerGCell < c.minWireCost {
				c.minWireCost = w.CostPerGCell
			}
			if w.DelayPerGCell < c.minWireDelay {
				c.minWireDelay = w.DelayPerGCell
			}
		}
	}
}

// ArcCost returns the congestion cost c(e) of the arc.
func (c *Costs) ArcCost(a Arc) float64 {
	m := float64(c.Mult[a.Seg])
	if a.Via {
		return m * c.G.Layers[a.L].ViaCost
	}
	return m * c.G.Layers[a.L].Wires[a.WT].CostPerGCell
}

// ArcDelay returns the delay d(e) of the arc in ps.
func (c *Costs) ArcDelay(a Arc) float64 {
	if a.Via {
		return c.G.Layers[a.L].ViaDelay
	}
	return c.G.Layers[a.L].Wires[a.WT].DelayPerGCell
}

// MinCostPerGCell returns an admissible lower bound on the congestion
// cost of one gcell step anywhere in the graph. The exact tier's bounds
// (future.MaskEstimator, the goal solver's slack radius) use it;
// core.Solve's future cost prices a step per direction from the whole
// stack instead (future.Targets.Units), which is never below
// MinCostPerGCell + w·MinDelayPerGCell.
func (c *Costs) MinCostPerGCell() float64 { return c.minWireCost * c.MinMult }

// MinDelayPerGCell returns an admissible lower bound on the delay of one
// gcell step: the fastest layer and wire type combination (paper §III-C).
// Beside the exact tier's bounds, the router and the oracle adapters
// divide by it to express dbif and delay budgets in gcells.
func (c *Costs) MinDelayPerGCell() float64 { return c.minWireDelay }

// Window maps vertices inside a rectangle (all layers) to a dense index
// range, for DP tables in the topology embedding.
type Window struct {
	R      geom.Rect
	nx, ny int32
	w, h   int32
	layers int32
	// perW and perH divide by w and by h, for XYL.
	perW, perH divisor
}

// NewWindow returns a window over rectangle r of graph g.
func (g *Graph) NewWindow(r geom.Rect) Window {
	w, h := r.W(), r.H()
	return Window{R: r, nx: g.NX, ny: g.NY, w: w, h: h, layers: int32(len(g.Layers)),
		perW: newDivisor(w), perH: newDivisor(h)}
}

// divisor divides a non-negative int32 by a fixed d ≥ 1 with one
// multiply and one shift (Granlund and Montgomery, "Division by
// invariant integers using multiplication", 1994, Theorem 4.2): for
// l = ⌈log2 d⌉ and m = ⌈2^(31+l)/d⌉, m·d − 2^(31+l) < d ≤ 2^l, so
// ⌊n/d⌋ = ⌊n·m/2^(31+l)⌋ for every 0 ≤ n < 2^31; m ≤ 2^32 keeps n·m
// below 2^63.
type divisor struct {
	m  uint64
	sh uint8
}

// newDivisor returns the divisor for d; d < 1, the side of a window of
// no cells, gives one that is never used.
func newDivisor(d int32) divisor {
	if d < 1 {
		return divisor{}
	}
	sh := 31 + uint(bits.Len32(uint32(d-1)))
	return divisor{m: (1<<sh + uint64(d) - 1) / uint64(d), sh: uint8(sh)}
}

// div returns n/d for 0 ≤ n. The mask only tells the compiler that the
// shift stays below 64.
func (q divisor) div(n int32) int32 { return int32(uint64(n) * q.m >> (q.sh & 63)) }

// Size returns the number of vertices in the window.
func (w Window) Size() int32 { return w.w * w.h * w.layers }

// Index returns the dense index of v in the window, or -1 if v is
// outside the window rectangle.
func (w Window) Index(v V) int32 {
	x := int32(v) % w.nx
	t := int32(v) / w.nx
	y := t % w.ny
	l := t / w.ny
	if x < w.R.X0 || x > w.R.X1 || y < w.R.Y0 || y > w.R.Y1 {
		return -1
	}
	return (l*w.h+(y-w.R.Y0))*w.w + (x - w.R.X0)
}

// RectIndex returns the dense index of grid cell (x, y) on layer l.
// The cell must lie inside the window rectangle; indices along a row
// are contiguous, so callers can iterate a sub-rectangle row by row.
func (w Window) RectIndex(x, y, l int32) int32 {
	return (l*w.h+(y-w.R.Y0))*w.w + (x - w.R.X0)
}

// Layers returns the number of layers the window spans.
func (w Window) Layers() int32 { return w.layers }

// XYL decodes a dense window index to grid coordinates and layer. The
// search kernels decode every label they settle, so it divides by
// multiplying (see divisor) and takes the window by pointer, which an
// inlined call reads in place instead of copying.
func (w *Window) XYL(idx int32) (x, y, l int32) {
	t := w.perW.div(idx)
	l = w.perH.div(t)
	return idx - t*w.w + w.R.X0, t - l*w.h + w.R.Y0, l
}

// Vertex returns the graph vertex for a dense window index.
func (w Window) Vertex(idx int32) V {
	x, y, l := w.XYL(idx)
	return V((l*w.ny+y)*w.nx + x)
}

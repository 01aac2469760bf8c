package costdist

import (
	"encoding/json"
	"fmt"
	"math"

	"costdist/internal/grid"
)

// InstanceJSON is the on-disk schema consumed by cmd/cdsteiner: a
// self-contained cost-distance Steiner tree instance on the default
// technology. Congestion can be injected through priced rectangles.
type InstanceJSON struct {
	NX     int32 `json:"nx"`
	NY     int32 `json:"ny"`
	Layers int   `json:"layers"`

	Root [3]int32 `json:"root"` // x, y, layer
	// Sinks are the terminals with their delay weights; a weight lies in
	// [0, MaxSinkWeight].
	Sinks []struct {
		X int32   `json:"x"`
		Y int32   `json:"y"`
		L int32   `json:"l"`
		W float64 `json:"w"`
	} `json:"sinks"`

	// DBif < 0 derives the penalty from the technology; Eta, the minimum
	// share of it either branch absorbs, lies in [0, 1/2] and defaults to
	// 0.25 when omitted.
	DBif float64 `json:"dbif"`
	Eta  float64 `json:"eta,omitempty"`
	Seed uint64  `json:"seed,omitempty"`
	// Margin expands the routing window around the terminals (gcells).
	Margin int32 `json:"margin,omitempty"`

	// Congestion rectangles: all routing segments on the given layer
	// whose low endpoint lies in [x0,x1]×[y0,y1] get the multiplier.
	Congestion []struct {
		X0   int32   `json:"x0"`
		Y0   int32   `json:"y0"`
		X1   int32   `json:"x1"`
		Y1   int32   `json:"y1"`
		L    int32   `json:"l"`
		Mult float32 `json:"mult"`
	} `json:"congestion,omitempty"`
}

// MaxSinkWeight caps a document's sink delay weight. The router's fixed
// weight schedule never exceeds 0.05; the cap sits 2·10⁷ times above
// that and keeps every label of a solve finite, where a weight near the
// float64 limit prices a gcell step at +Inf and leaves the search no
// event.
const MaxSinkWeight = 1e6

// MaxLayers is the deepest layer stack an instance or a checkpoint may
// claim: a routing arc names its layer in an int8.
const MaxLayers = grid.MaxLayers

// Normalize applies the documented defaults in place: omitted eta means
// 0.25, an omitted or non-positive margin means 8, and every negative
// dbif spells "derive from the technology". It is idempotent. Build and
// the canonical form both go through it, so the content address can
// never drift from the parse semantics.
func (f *InstanceJSON) Normalize() {
	if f.Eta == 0 {
		f.Eta = 0.25
	}
	if f.Margin <= 0 {
		f.Margin = 8
	}
	if f.DBif < 0 {
		f.DBif = -1
	}
}

// decodeInstance is the one JSON decode of an instance document.
func decodeInstance(data []byte) (InstanceJSON, error) {
	var f InstanceJSON
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("costdist: parsing instance: %w", err)
	}
	return f, nil
}

// Build normalizes the document in place and turns it into a solvable
// Instance backed by the default technology, on a grid of its own.
// Dimensions and every pin are validated before the grid is allocated,
// so a rejected document costs no more than its own decode.
func (f *InstanceJSON) Build() (*Instance, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	var ig instanceGrid
	return ig.build(f), nil
}

// check normalizes the document and validates its dimensions, eta and
// every sink's pin and weight: all that Build and Solver.Build refuse,
// refused before any grid is touched.
func (f *InstanceJSON) check() error {
	f.Normalize()
	if f.NX < 2 || f.NY < 2 || f.Layers < 2 {
		return fmt.Errorf("costdist: instance needs nx,ny ≥ 2 and layers ≥ 2")
	}
	if f.Layers > MaxLayers {
		return fmt.Errorf("costdist: instance has %d layers, at most %d", f.Layers, MaxLayers)
	}
	if !(f.Eta >= 0 && f.Eta <= 0.5) {
		return fmt.Errorf("costdist: eta %g outside [0, 0.5]", f.Eta)
	}
	inBounds := func(x, y, l int32) error {
		if x < 0 || x >= f.NX || y < 0 || y >= f.NY || l < 0 || l >= int32(f.Layers) {
			return fmt.Errorf("costdist: pin (%d,%d,%d) outside grid", x, y, l)
		}
		return nil
	}
	if err := inBounds(f.Root[0], f.Root[1], f.Root[2]); err != nil {
		return err
	}
	for i, s := range f.Sinks {
		if err := inBounds(s.X, s.Y, s.L); err != nil {
			return fmt.Errorf("sink %d: %w", i, err)
		}
		if !(s.W >= 0 && s.W <= MaxSinkWeight) {
			return fmt.Errorf("sink %d: costdist: weight %g outside [0, %g]", i, s.W, MaxSinkWeight)
		}
	}
	return nil
}

// instanceGrid is what an InstanceJSON is built on: the default
// technology's graph for one shape (nx, ny, layers), one multiplier
// array over it, the technology's bifurcation penalty, and the
// congestion rectangles the last build priced. The graph is never
// written after NewGrid — its capacities come from the layer stack — so
// only the multipliers need resetting between builds of one shape.
type instanceGrid struct {
	g      *grid.Graph
	c      *grid.Costs
	dbif   float64
	priced []pricedRect
}

// pricedRect is one congestion rectangle a build wrote into the
// multipliers, as the document gave it (applyCongestion clips it again
// when it is written back).
type pricedRect struct{ l, x0, y0, x1, y1 int32 }

// build turns a checked document into an Instance on ig's grid. On the
// shape ig already holds it writes 1 back over the rectangles the
// previous build priced; on any other shape it replaces the graph and
// the multipliers, so ig never holds more than one grid.
func (ig *instanceGrid) build(f *InstanceJSON) *Instance {
	if ig.g != nil && ig.g.NX == f.NX && ig.g.NY == f.NY && len(ig.g.Layers) == f.Layers {
		for _, r := range ig.priced {
			applyCongestion(ig.g, ig.c, r.l, r.x0, r.y0, r.x1, r.y1, 1)
		}
		ig.priced = ig.priced[:0]
	} else {
		tech := DefaultTech(f.Layers)
		ig.g = NewGrid(f.NX, f.NY, tech.BuildLayers(), tech.GCellUM)
		ig.c = NewCosts(ig.g)
		ig.dbif = tech.Dbif()
		ig.priced = make([]pricedRect, 0, len(f.Congestion))
	}
	g := ig.g
	dbif := f.DBif
	if dbif < 0 {
		dbif = ig.dbif
	}
	in := &Instance{
		G: g, C: ig.c,
		Root: g.At(f.Root[0], f.Root[1], f.Root[2]),
		DBif: dbif, Eta: f.Eta, Seed: f.Seed,
	}
	for _, s := range f.Sinks {
		in.Sinks = append(in.Sinks, Sink{V: g.At(s.X, s.Y, s.L), W: s.W})
	}
	for _, r := range f.Congestion {
		if applyCongestion(g, ig.c, r.L, r.X0, r.Y0, r.X1, r.Y1, r.Mult) {
			ig.priced = append(ig.priced, pricedRect{r.L, r.X0, r.Y0, r.X1, r.Y1})
		}
	}
	in.Win = in.DefaultWindow(f.Margin)
	return in
}

// ParseInstance decodes an InstanceJSON document into a solvable
// Instance backed by the default technology: one decode, then Build.
func ParseInstance(data []byte) (*Instance, error) {
	f, err := decodeInstance(data)
	if err != nil {
		return nil, err
	}
	return f.Build()
}

// applyCongestion sets the multiplier of every segment of layer l whose
// low endpoint lies in [x0,x1]×[y0,y1]. It reports false, writing
// nothing, for a layer outside the stack or a multiplier below 1.
func applyCongestion(g *grid.Graph, c *grid.Costs, l, x0, y0, x1, y1 int32, mult float32) bool {
	if l < 0 || l >= int32(len(g.Layers)) || mult < 1 {
		return false
	}
	// Clip to the grid before looping: a rectangle reaching to -2³¹ must
	// not buy 2³¹ iterations of nothing.
	for y := max(y0, 0); y <= y1 && y < g.NY; y++ {
		for x := max(x0, 0); x <= x1 && x < g.NX; x++ {
			if g.Layers[l].Dir == grid.DirH {
				if x < g.NX-1 {
					c.Mult[g.SegH(l, y, x)] = mult
				}
			} else if y < g.NY-1 {
				c.Mult[g.SegV(l, x, y)] = mult
			}
		}
	}
	return true
}

// CanonicalInstanceJSON re-emits an InstanceJSON document in canonical
// compact form: fixed key order (the struct's), no insignificant
// whitespace, and the defaulted fields normalized by the same
// InstanceJSON.Normalize that Build applies — so every "derive/default"
// spelling ParseInstance treats identically canonicalizes identically.
// Two documents that ParseInstance maps to the same instance and seed
// canonicalize to the same bytes, which makes the canonical form a
// content address: the service layer keys its result cache on a digest
// of these bytes (it marshals the InstanceJSON it already decoded) so
// formatting and key order never defeat caching.
func CanonicalInstanceJSON(data []byte) ([]byte, error) {
	f, err := decodeInstance(data)
	if err != nil {
		return nil, err
	}
	f.Normalize()
	return json.Marshal(&f)
}

// TreeJSON is the serialized form of a solved tree, emitted by
// cmd/cdsteiner as one compact JSON object (see MarshalTree).
type TreeJSON struct {
	Total     float64       `json:"total"`
	CongCost  float64       `json:"congestion_cost"`
	DelayCost float64       `json:"delay_cost"`
	SinkDelay []float64     `json:"sink_delay_ps"`
	WireSteps int           `json:"wire_steps"`
	Vias      int           `json:"vias"`
	Edges     [][2][3]int32 `json:"edges"` // pairs of (x,y,l)
	// WireTypes holds the wire type index of each edge (−1 for vias).
	// Without it layers with multiple wire types would not round-trip:
	// an edge's endpoints do not determine which parallel edge was used,
	// and re-evaluating a reloaded tree on the default (widest-counted)
	// type skews its cost. A document with edges must carry it.
	WireTypes []int8 `json:"wire_types,omitempty"`
}

// MarshalTree serializes a tree with its evaluation: TreeJSON as
// compact JSON, the bytes json.Marshal gives it, written without
// reflection.
func MarshalTree(in *Instance, tr *Tree) ([]byte, error) {
	ev, err := Evaluate(in, tr)
	if err != nil {
		return nil, err
	}
	w := wireWriter{b: make([]byte, 0, 256+32*len(ev.SinkDelay)+32*len(tr.Steps))}
	w.open('{')
	w.key("total").float(ev.Total, 64)
	w.key("congestion_cost").float(ev.CongCost, 64)
	w.key("delay_cost").float(ev.DelayCost, 64)
	writeFloats(w.key("sink_delay_ps"), ev.SinkDelay, 64)
	w.key("wire_steps").integer(int64(ev.WireSteps))
	w.key("vias").integer(int64(ev.Vias))
	w.steps(in.G, tr.Steps)
	w.close('}')
	return w.result()
}

// UnmarshalTree decodes a TreeJSON document back into an embedded tree
// on the instance's graph — the inverse of MarshalTree. Edges must
// connect adjacent vertices inside the grid; the reloaded tree evaluates
// to the same objective decomposition it was saved with.
func UnmarshalTree(in *Instance, data []byte) (*Tree, error) {
	var f TreeJSON
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("costdist: parsing tree: %w", err)
	}
	return decodeTreeSteps(in.G, f.Edges, f.WireTypes)
}

// decodeTreeSteps rebuilds embedded tree steps from the wire format,
// validating adjacency, direction legality and wire-type ranges against
// the graph. Every edge carries its wire type.
func decodeTreeSteps(g *grid.Graph, edges [][2][3]int32, wts []int8) (*Tree, error) {
	if len(wts) != len(edges) {
		return nil, fmt.Errorf("costdist: %d wire types for %d edges", len(wts), len(edges))
	}
	tr := &Tree{}
	if len(edges) > 0 {
		tr.Steps = make([]Step, 0, len(edges))
	}
	for i, e := range edges {
		u, err := vertexAt(g, e[0])
		if err != nil {
			return nil, fmt.Errorf("edge %d: %w", i, err)
		}
		v, err := vertexAt(g, e[1])
		if err != nil {
			return nil, fmt.Errorf("edge %d: %w", i, err)
		}
		dx, dy, dl := e[1][0]-e[0][0], e[1][1]-e[0][1], e[1][2]-e[0][2]
		if absInt32(dx)+absInt32(dy)+absInt32(dl) != 1 {
			return nil, fmt.Errorf("costdist: edge %d connects non-adjacent vertices %v and %v", i, e[0], e[1])
		}
		if dl == 0 {
			// A wire edge must follow its layer's preferred direction —
			// the cross-direction edge does not exist in the graph, and
			// SegBetween would map it onto an unrelated segment id.
			dir := g.Layers[e[0][2]].Dir
			if (dir == grid.DirH && dx == 0) || (dir == grid.DirV && dy == 0) {
				return nil, fmt.Errorf("costdist: edge %d runs %s on a %v layer", i,
					map[bool]string{true: "vertically", false: "horizontally"}[dx == 0], dir)
			}
		}
		seg, via := g.SegBetween(u, v)
		arc := grid.Arc{To: v, Seg: seg, Via: via}
		if via {
			arc.L = int8(min(e[0][2], e[1][2]))
			arc.WT = -1
			if wts[i] != -1 {
				return nil, fmt.Errorf("costdist: edge %d is a via but has wire type %d", i, wts[i])
			}
		} else {
			arc.L, arc.WT = int8(e[0][2]), wts[i]
			if arc.WT < 0 || int(arc.WT) >= len(g.Layers[arc.L].Wires) {
				return nil, fmt.Errorf("costdist: edge %d wire type %d out of range on layer %d", i, arc.WT, arc.L)
			}
		}
		tr.Steps = append(tr.Steps, Step{From: u, Arc: arc})
	}
	return tr, nil
}

// RouteTreeJSON is one net's embedded tree inside a RouteResultJSON
// document, using the same edge/wire-type encoding as TreeJSON.
type RouteTreeJSON struct {
	Edges     [][2][3]int32 `json:"edges"`
	WireTypes []int8        `json:"wire_types,omitempty"`
}

// RouteMetricsJSON is the serialized RouteMetrics: the row carries its
// own JSON tags, with Walltime and StageNanosPerWave — the two
// nondeterministic fields — tagged out there, so every wire form stays
// a pure function of the routing outcome.
type RouteMetricsJSON = RouteMetrics

// RouteResultJSON is the on-wire form of a full routing run: the
// metric row plus every net's final embedded tree (null for nets the
// run never routed), indexed like the chip's netlist. MarshalRouteResult
// writes it as one compact JSON object.
type RouteResultJSON struct {
	Metrics RouteMetricsJSON `json:"metrics"`
	Trees   []*RouteTreeJSON `json:"trees"`
}

// MarshalRouteResult serializes a routing result against the chip it
// was produced on: RouteResultJSON as compact JSON, the bytes
// json.Marshal gives it, written without reflection. The output is
// deterministic for a deterministic run (map keys sort, Walltime is
// excluded), so identical route requests marshal to identical bytes.
func MarshalRouteResult(chip *Chip, res *RouteResult) ([]byte, error) {
	if res == nil {
		return nil, fmt.Errorf("costdist: nil route result")
	}
	// About 24 bytes a step while coordinates have three digits.
	size := 4096
	for _, tr := range res.Trees {
		if tr != nil {
			size += 32 + 32*len(tr.Steps)
		}
	}
	w := wireWriter{b: make([]byte, 0, size)}
	w.open('{')
	w.key("metrics").metrics(&res.Metrics)
	w.key("trees").open('[')
	for _, tr := range res.Trees {
		w.elem()
		if tr == nil {
			w.null()
			continue
		}
		w.open('{')
		w.steps(chip.G, tr.Steps)
		w.close('}')
	}
	w.close(']')
	w.close('}')
	return w.result()
}

// UnmarshalRouteResult decodes a RouteResultJSON document back into a
// RouteResult on the chip's graph — the inverse of MarshalRouteResult
// (Walltime, which is not serialized, comes back zero). Every tree is
// validated against the graph exactly like UnmarshalTree, and the
// document must hold one tree (or null) per net of the chip.
func UnmarshalRouteResult(chip *Chip, data []byte) (*RouteResult, error) {
	var f RouteResultJSON
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("costdist: parsing route result: %w", err)
	}
	res := &RouteResult{Metrics: f.Metrics}
	if len(f.Trees) > 0 {
		res.Trees = make([]*Tree, len(f.Trees))
		for i, tj := range f.Trees {
			if tj == nil {
				continue
			}
			tr, err := decodeTreeSteps(chip.G, tj.Edges, tj.WireTypes)
			if err != nil {
				return nil, fmt.Errorf("net %d: %w", i, err)
			}
			res.Trees[i] = tr
		}
	}
	if len(f.Trees) != len(chip.NL.Nets) {
		return nil, fmt.Errorf("costdist: route result has %d trees for %d nets", len(f.Trees), len(chip.NL.Nets))
	}
	return res, nil
}

// CheckpointVersion is the wire-format version MarshalCheckpoint
// writes; UnmarshalCheckpoint rejects documents from a different
// version instead of guessing at their layout.
const CheckpointVersion = 3

// MarshalCheckpoint serializes a router checkpoint into its versioned,
// byte-stable wire form: one compact JSON object with the members
// version, method, nx, ny, layers, layer_dirs, cap and mult (float32
// vectors, one entry per segment) and nets. Each net is an object with
// driver, sinks, weights, budgets (+Inf, a sink with no timing endpoint
// downstream, as null), delays and tree (a RouteTreeJSON, omitted for a
// net never routed). Method and layer_dirs must be plain names:
// printable ASCII that encoding/json would not escape. Only warm-start
// state is written: the drift reference and each tree's snapshot cost
// are derived from mult on restore. The document is written without
// reflection. Identical states marshal to identical bytes, and marshal →
// unmarshal → marshal reproduces them, which is what lets the service
// layer content-address retained checkpoints.
func MarshalCheckpoint(st *RouterState) ([]byte, error) {
	if st == nil {
		return nil, fmt.Errorf("costdist: nil checkpoint state")
	}
	g, err := checkpointGraph(st.NX, st.NY, st.Layers, st.LayerDirs, len(st.Cap), len(st.Mult))
	if err != nil {
		return nil, err
	}
	w := wireWriter{b: make([]byte, 0, checkpointSize(st))}
	w.open('{')
	w.key("version").integer(CheckpointVersion)
	w.key("method").str(st.Method)
	w.key("nx").integer(int64(st.NX))
	w.key("ny").integer(int64(st.NY))
	w.key("layers").integer(int64(st.Layers))
	w.key("layer_dirs").str(st.LayerDirs)
	writeFloats(w.key("cap"), st.Cap, 32)
	writeFloats(w.key("mult"), st.Mult, 32)
	w.key("nets").open('[')
	for ni := range st.Nets {
		ns := &st.Nets[ni]
		w.elem()
		w.open('{')
		w.key("driver").ints(ns.Sig.Driver.X, ns.Sig.Driver.Y)
		w.key("sinks").open('[')
		for _, p := range ns.Sig.Sinks {
			w.elem()
			w.ints(p.X, p.Y)
		}
		w.close(']')
		writeFloats(w.key("weights"), ns.Weights, 64)
		w.key("budgets").budgets(ns.Budgets)
		writeFloats(w.key("delays"), ns.Delays, 64)
		if ns.Tree != nil {
			w.key("tree").open('{')
			w.steps(g, ns.Tree.Steps)
			w.close('}')
		}
		w.close('}')
	}
	w.close(']')
	w.close('}')
	return w.result()
}

// checkpointSize estimates st's document length from above, so that its
// buffer is allocated once: on the c1@0.01 checkpoint a price takes 2.4
// bytes, a sink with its three float64s about 70 and a tree step 24.
func checkpointSize(st *RouterState) int {
	n := 1024 + 2*4*len(st.Cap)
	for i := range st.Nets {
		ns := &st.Nets[i]
		n += 112 + 72*len(ns.Sig.Sinks)
		if ns.Tree != nil {
			n += 26 * len(ns.Tree.Steps)
		}
	}
	return n
}

// UnmarshalCheckpoint decodes a checkpoint document back into a
// RouterState — the inverse of MarshalCheckpoint. It reads the compact
// layout MarshalCheckpoint writes in one pass and refuses anything else,
// naming the byte offset (see checkpointReader). Trees are validated
// against a reconstruction of the checkpointed grid (the default
// technology at the stored layer count), exactly like UnmarshalTree
// validates standalone trees.
func UnmarshalCheckpoint(data []byte) (*RouterState, error) {
	r := newCheckpointReader(data)
	st, err := r.checkpoint()
	if err != nil {
		return nil, err
	}
	if r.pos != len(data) {
		return nil, r.errorf(r.pos, "data after the checkpoint")
	}
	return st, nil
}

// checkpointGraph reconstructs the routing grid a checkpoint is bound
// to: the default technology at the stored layer count. The stored
// layer directions must match the reconstruction — checkpoints of
// custom layer stacks have no wire form — and the cap and mult vectors
// (of lengths nCap and nMult) must have one entry per segment. The
// shape and the lengths are checked in int64 before the grid is built,
// so a header claiming a huge grid costs no more than its own decode.
func checkpointGraph(nx, ny int32, layers int, dirs string, nCap, nMult int) (*grid.Graph, error) {
	if nx < 1 || ny < 1 || layers < 2 || layers > grid.MaxLayers {
		return nil, fmt.Errorf("costdist: checkpoint grid %dx%dx%d invalid", nx, ny, layers)
	}
	tech := DefaultTech(layers)
	stack := tech.BuildLayers()
	verts, segs := grid.Size(nx, ny, stack)
	if verts > math.MaxInt32 || segs > math.MaxInt32 {
		return nil, fmt.Errorf("costdist: checkpoint grid %dx%dx%d too large (%d vertices, %d segments)", nx, ny, layers, verts, segs)
	}
	if int64(nCap) != segs || int64(nMult) != segs {
		return nil, fmt.Errorf("costdist: checkpoint has %d/%d cap/mult segments, grid has %d",
			nCap, nMult, segs)
	}
	g := NewGrid(nx, ny, stack, tech.GCellUM)
	if got := g.LayerDirs(); got != dirs {
		return nil, fmt.Errorf("costdist: checkpoint layer directions %q do not match the default %d-layer stack %q",
			dirs, layers, got)
	}
	return g, nil
}

func vertexAt(g *grid.Graph, p [3]int32) (grid.V, error) {
	if p[0] < 0 || p[0] >= g.NX || p[1] < 0 || p[1] >= g.NY || p[2] < 0 || p[2] >= int32(len(g.Layers)) {
		return 0, fmt.Errorf("costdist: vertex (%d,%d,%d) outside grid", p[0], p[1], p[2])
	}
	return g.At(p[0], p[1], p[2]), nil
}

func absInt32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

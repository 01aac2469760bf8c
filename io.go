package costdist

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"costdist/internal/grid"
)

// InstanceJSON is the on-disk schema consumed by cmd/cdsteiner: a
// self-contained cost-distance Steiner tree instance on the default
// technology. Congestion can be injected through priced rectangles.
type InstanceJSON struct {
	NX     int32 `json:"nx"`
	NY     int32 `json:"ny"`
	Layers int   `json:"layers"`

	Root  [3]int32 `json:"root"` // x, y, layer
	Sinks []struct {
		X int32   `json:"x"`
		Y int32   `json:"y"`
		L int32   `json:"l"`
		W float64 `json:"w"`
	} `json:"sinks"`

	// DBif < 0 derives the penalty from the technology; Eta defaults to
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

// check normalizes the document and validates its dimensions and every
// pin: all that Build and Solver.Build refuse, refused before any grid
// is touched.
func (f *InstanceJSON) check() error {
	f.Normalize()
	if f.NX < 2 || f.NY < 2 || f.Layers < 2 {
		return fmt.Errorf("costdist: instance needs nx,ny ≥ 2 and layers ≥ 2")
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
// cmd/cdsteiner.
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
	// type skews its cost. Absent in documents written before this field
	// existed, in which case type 0 is assumed.
	WireTypes []int8 `json:"wire_types,omitempty"`
}

// MarshalTree serializes a tree with its evaluation.
func MarshalTree(in *Instance, tr *Tree) ([]byte, error) {
	ev, err := Evaluate(in, tr)
	if err != nil {
		return nil, err
	}
	out := TreeJSON{
		Total: ev.Total, CongCost: ev.CongCost, DelayCost: ev.DelayCost,
		SinkDelay: ev.SinkDelay, WireSteps: ev.WireSteps, Vias: ev.Vias,
	}
	out.Edges, out.WireTypes = encodeTreeSteps(in.G, tr)
	return json.MarshalIndent(out, "", "  ")
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

// encodeTreeSteps flattens a tree into the wire format shared by
// TreeJSON and RouteResultJSON: endpoint coordinates plus the wire type
// of each edge (-1 for vias).
func encodeTreeSteps(g *grid.Graph, tr *Tree) (edges [][2][3]int32, wts []int8) {
	for _, st := range tr.Steps {
		fx, fy, fl := g.XYL(st.From)
		tx, ty, tl := g.XYL(st.Arc.To)
		edges = append(edges, [2][3]int32{{fx, fy, fl}, {tx, ty, tl}})
		wts = append(wts, st.Arc.WT)
	}
	return edges, wts
}

// decodeTreeSteps rebuilds embedded tree steps from the wire format,
// validating adjacency, direction legality and wire-type ranges against
// the graph. wts == nil assumes type 0 everywhere (pre-wire-type
// documents).
func decodeTreeSteps(g *grid.Graph, edges [][2][3]int32, wts []int8) (*Tree, error) {
	if wts != nil && len(wts) != len(edges) {
		return nil, fmt.Errorf("costdist: %d wire types for %d edges", len(wts), len(edges))
	}
	tr := &Tree{}
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
			if wts != nil && wts[i] != -1 {
				return nil, fmt.Errorf("costdist: edge %d is a via but has wire type %d", i, wts[i])
			}
		} else {
			arc.L = int8(e[0][2])
			if wts != nil {
				arc.WT = wts[i]
			}
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
// run never routed), indexed like the chip's netlist.
type RouteResultJSON struct {
	Metrics RouteMetricsJSON `json:"metrics"`
	Trees   []*RouteTreeJSON `json:"trees"`
}

// MarshalRouteResult serializes a routing result against the chip it
// was produced on. The output is deterministic for a deterministic run
// (map keys sort, Walltime is excluded), so identical route requests
// marshal to identical bytes.
func MarshalRouteResult(chip *Chip, res *RouteResult) ([]byte, error) {
	if res == nil {
		return nil, fmt.Errorf("costdist: nil route result")
	}
	out := RouteResultJSON{
		Metrics: res.Metrics,
		Trees:   make([]*RouteTreeJSON, len(res.Trees)),
	}
	for i, tr := range res.Trees {
		if tr == nil {
			continue
		}
		tj := &RouteTreeJSON{}
		tj.Edges, tj.WireTypes = encodeTreeSteps(chip.G, tr)
		out.Trees[i] = tj
	}
	return json.MarshalIndent(out, "", "  ")
}

// UnmarshalRouteResult decodes a RouteResultJSON document back into a
// RouteResult on the chip's graph — the inverse of MarshalRouteResult
// (Walltime, which is not serialized, comes back zero). Every tree is
// validated against the graph exactly like UnmarshalTree.
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
	return res, nil
}

// CheckpointVersion is the wire-format version MarshalCheckpoint
// writes; UnmarshalCheckpoint rejects documents from a different
// version instead of guessing at their layout.
const CheckpointVersion = 1

// budgetsJSON carries a per-sink delay budget vector on the wire. A
// sink with no timing endpoint downstream has budget +Inf
// ("unconstrained"), which JSON numbers cannot express — it is encoded
// as null. Both directions are implemented here, so the encoding is
// lossless and byte-stable.
type budgetsJSON []float64

func (b budgetsJSON) MarshalJSON() ([]byte, error) {
	out := make([]byte, 0, 16*len(b)+2)
	out = append(out, '[')
	for i, v := range b {
		if i > 0 {
			out = append(out, ',')
		}
		if math.IsInf(v, 1) {
			out = append(out, "null"...)
			continue
		}
		if math.IsInf(v, -1) || math.IsNaN(v) {
			return nil, fmt.Errorf("costdist: budget %d is %v, not serializable", i, v)
		}
		out = strconv.AppendFloat(out, v, 'g', -1, 64)
	}
	return append(out, ']'), nil
}

func (b *budgetsJSON) UnmarshalJSON(data []byte) error {
	var raw []*float64
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*b = make([]float64, len(raw))
	for i, p := range raw {
		if p == nil {
			(*b)[i] = math.Inf(1)
		} else {
			(*b)[i] = *p
		}
	}
	return nil
}

// CheckpointNetJSON is one net's externalized state inside a
// CheckpointJSON document: the terminal signature the warm-start diff
// keys on, the Lagrangean timing state, the cached tree (absent if the
// net was never routed) with its rebaselined solve snapshot.
type CheckpointNetJSON struct {
	Driver   [2]int32       `json:"driver"`
	Sinks    [][2]int32     `json:"sinks"`
	Weights  []float64      `json:"weights"`
	Budgets  budgetsJSON    `json:"budgets"`
	Delays   []float64      `json:"delays"`
	LastCost float64        `json:"last_cost"`
	Oracle   string         `json:"oracle,omitempty"`
	Tree     *RouteTreeJSON `json:"tree,omitempty"`
}

// CheckpointJSON is the versioned wire form of a RouterState: the grid
// signature, the chip-wide price vectors, the producing run's metric
// row (the same tagged RouteMetrics as MarshalRouteResult, Walltime
// excluded) and every net's state. Marshaling is compact and
// byte-stable: marshal → unmarshal → marshal reproduces the input
// bytes exactly, which is what lets the service layer content-address
// retained checkpoints.
type CheckpointJSON struct {
	Version   int                 `json:"version"`
	Method    string              `json:"method"`
	NX        int32               `json:"nx"`
	NY        int32               `json:"ny"`
	Layers    int                 `json:"layers"`
	LayerDirs string              `json:"layer_dirs"`
	Cap       []float32           `json:"cap"`
	Mult      []float32           `json:"mult"`
	Ref       []float32           `json:"ref"`
	Metrics   RouteMetricsJSON    `json:"metrics"`
	Nets      []CheckpointNetJSON `json:"nets"`
}

// MarshalCheckpoint serializes a router checkpoint into its versioned,
// byte-stable wire form. Identical states marshal to identical bytes.
func MarshalCheckpoint(st *RouterState) ([]byte, error) {
	if st == nil {
		return nil, fmt.Errorf("costdist: nil checkpoint state")
	}
	g, err := checkpointGraph(st.NX, st.NY, st.Layers, st.LayerDirs, len(st.Cap), len(st.Mult), len(st.Ref))
	if err != nil {
		return nil, err
	}
	out := CheckpointJSON{
		Version:   CheckpointVersion,
		Method:    st.Method,
		NX:        st.NX,
		NY:        st.NY,
		Layers:    st.Layers,
		LayerDirs: st.LayerDirs,
		Cap:       st.Cap,
		Mult:      st.Mult,
		Ref:       st.Ref,
		Metrics:   st.Metrics,
		Nets:      make([]CheckpointNetJSON, len(st.Nets)),
	}
	for ni := range st.Nets {
		ns := &st.Nets[ni]
		nj := CheckpointNetJSON{
			Driver:   [2]int32{ns.Sig.Driver.X, ns.Sig.Driver.Y},
			Sinks:    make([][2]int32, len(ns.Sig.Sinks)),
			Weights:  ns.Weights,
			Budgets:  budgetsJSON(ns.Budgets),
			Delays:   ns.Delays,
			LastCost: ns.LastCost,
			Oracle:   ns.Oracle,
		}
		for k, p := range ns.Sig.Sinks {
			nj.Sinks[k] = [2]int32{p.X, p.Y}
		}
		if ns.Tree != nil {
			tj := &RouteTreeJSON{}
			tj.Edges, tj.WireTypes = encodeTreeSteps(g, ns.Tree)
			nj.Tree = tj
		}
		out.Nets[ni] = nj
	}
	return json.Marshal(&out)
}

// UnmarshalCheckpoint decodes a checkpoint document back into a
// RouterState — the inverse of MarshalCheckpoint. Trees are validated
// against a reconstruction of the checkpointed grid (the default
// technology at the stored layer count), exactly like UnmarshalTree
// validates standalone trees.
func UnmarshalCheckpoint(data []byte) (*RouterState, error) {
	var f CheckpointJSON
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("costdist: parsing checkpoint: %w", err)
	}
	if f.Version != CheckpointVersion {
		return nil, fmt.Errorf("costdist: checkpoint version %d unsupported (want %d)", f.Version, CheckpointVersion)
	}
	g, err := checkpointGraph(f.NX, f.NY, f.Layers, f.LayerDirs, len(f.Cap), len(f.Mult), len(f.Ref))
	if err != nil {
		return nil, err
	}
	st := &RouterState{
		Method:    f.Method,
		NX:        f.NX,
		NY:        f.NY,
		Layers:    f.Layers,
		LayerDirs: f.LayerDirs,
		Cap:       f.Cap,
		Mult:      f.Mult,
		Ref:       f.Ref,
		Metrics:   f.Metrics,
		Nets:      make([]RouterNetState, len(f.Nets)),
	}
	for ni := range f.Nets {
		nj := &f.Nets[ni]
		// Per-sink vectors must match the sink count — the restored
		// scheduler indexes them by pin position, so a truncated vector
		// that slipped through here would panic deep inside a wave.
		if k := len(nj.Sinks); len(nj.Weights) != k || len(nj.Budgets) != k || len(nj.Delays) != k {
			return nil, fmt.Errorf("costdist: checkpoint net %d has %d sinks but %d/%d/%d weights/budgets/delays",
				ni, k, len(nj.Weights), len(nj.Budgets), len(nj.Delays))
		}
		sig := PinSig{Driver: Pt{X: nj.Driver[0], Y: nj.Driver[1]}}
		sig.Sinks = make([]Pt, len(nj.Sinks))
		for k, s := range nj.Sinks {
			sig.Sinks[k] = Pt{X: s[0], Y: s[1]}
		}
		ns := RouterNetState{
			Sig:      sig,
			Weights:  nj.Weights,
			Budgets:  []float64(nj.Budgets),
			Delays:   nj.Delays,
			LastCost: nj.LastCost,
			Oracle:   nj.Oracle,
		}
		if nj.Tree != nil {
			tr, err := decodeTreeSteps(g, nj.Tree.Edges, nj.Tree.WireTypes)
			if err != nil {
				return nil, fmt.Errorf("checkpoint net %d: %w", ni, err)
			}
			ns.Tree = tr
		}
		st.Nets[ni] = ns
	}
	return st, nil
}

// checkpointGraph reconstructs the routing grid a checkpoint is bound
// to: the default technology at the stored layer count. The stored
// layer directions must match the reconstruction — checkpoints of
// custom layer stacks have no wire form — and the cap/mult/ref vectors
// (of lengths nCap, nMult, nRef) must have one entry per segment. The
// shape and the lengths are checked in int64 before the grid is built,
// so a header claiming a huge grid costs no more than its own decode.
func checkpointGraph(nx, ny int32, layers int, dirs string, nCap, nMult, nRef int) (*grid.Graph, error) {
	if nx < 1 || ny < 1 || layers < 2 || layers > 1024 {
		return nil, fmt.Errorf("costdist: checkpoint grid %dx%dx%d invalid", nx, ny, layers)
	}
	tech := DefaultTech(layers)
	stack := tech.BuildLayers()
	verts, segs := grid.Size(nx, ny, stack)
	if verts > math.MaxInt32 || segs > math.MaxInt32 {
		return nil, fmt.Errorf("costdist: checkpoint grid %dx%dx%d too large (%d vertices, %d segments)", nx, ny, layers, verts, segs)
	}
	if int64(nCap) != segs || int64(nMult) != segs || int64(nRef) != segs {
		return nil, fmt.Errorf("costdist: checkpoint has %d/%d/%d cap/mult/ref segments, grid has %d",
			nCap, nMult, nRef, segs)
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

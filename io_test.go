package costdist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"costdist/internal/grid"
)

// CanonicalInstanceJSON must map every spelling of the same instance —
// key order, whitespace, explicit defaults — to one byte string, and
// distinguish instances that differ semantically. The service layer's
// cache addresses depend on exactly this property.
func TestCanonicalInstanceJSON(t *testing.T) {
	base := `{"nx":8,"ny":8,"layers":3,"root":[1,1,0],"sinks":[{"x":5,"y":5,"l":0,"w":0.01}],"dbif":20,"seed":3}`
	variants := []string{
		"  {\n  \"seed\": 3, \"dbif\": 20.0,\n  \"layers\": 3, \"ny\": 8, \"nx\": 8,\n  \"sinks\": [ {\"w\": 1e-2, \"l\": 0, \"y\": 5, \"x\": 5} ], \"root\": [1, 1, 0] }",
		`{"nx":8,"ny":8,"layers":3,"root":[1,1,0],"sinks":[{"x":5,"y":5,"l":0,"w":0.01}],"dbif":20,"eta":0.25,"seed":3,"margin":8}`,
	}
	want, err := CanonicalInstanceJSON([]byte(base))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range variants {
		got, err := CanonicalInstanceJSON([]byte(v))
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("variant %d canonicalizes differently:\n%s\n%s", i, want, got)
		}
	}
	// Any negative dbif spells "derive from technology".
	a, _ := CanonicalInstanceJSON([]byte(`{"nx":8,"ny":8,"layers":3,"root":[1,1,0],"sinks":[],"dbif":-1}`))
	b, _ := CanonicalInstanceJSON([]byte(`{"nx":8,"ny":8,"layers":3,"root":[1,1,0],"sinks":[],"dbif":-7}`))
	if !bytes.Equal(a, b) {
		t.Fatal("negative dbif spellings canonicalize differently")
	}
	// A semantic change must change the bytes.
	diff, err := CanonicalInstanceJSON([]byte(`{"nx":8,"ny":8,"layers":3,"root":[1,1,0],"sinks":[{"x":5,"y":5,"l":0,"w":0.01}],"dbif":20,"seed":4}`))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, diff) {
		t.Fatal("different seeds canonicalize identically")
	}
	if _, err := CanonicalInstanceJSON([]byte("{")); err == nil {
		t.Fatal("accepted malformed JSON")
	}
	// Canonical output must itself parse to a valid instance.
	if _, err := ParseInstance(want); err != nil {
		t.Fatalf("canonical form does not parse: %v", err)
	}
}

// The corpus documents must canonicalize stably (idempotence: canonical
// of canonical is canonical).
func TestCanonicalInstanceJSONIdempotentOnCorpus(t *testing.T) {
	for _, name := range []string{"small.json", "twopin.json", "congested.json"} {
		doc, err := os.ReadFile("examples/instances/" + name)
		if err != nil {
			t.Fatal(err)
		}
		c1, err := CanonicalInstanceJSON(doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c2, err := CanonicalInstanceJSON(c1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("%s: canonicalization not idempotent", name)
		}
	}
}

// MarshalRouteResult → UnmarshalRouteResult must round-trip the metrics
// and every net's embedded tree (wire types included), and re-marshal
// to the identical bytes — mirroring the TreeJSON wire-type round-trip
// guarantee from the single-net path.
func TestRouteResultRoundTrip(t *testing.T) {
	spec := ChipSuite(0.002)[0]
	chip, err := GenerateChip(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultRouterOptions()
	opt.Waves = 2
	opt.Incremental = true // exercise the per-wave counters too
	res, err := RouteChip(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalRouteResult(chip, res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalRouteResult(chip, data)
	if err != nil {
		t.Fatal(err)
	}

	wm := res.Metrics
	wm.Walltime = 0      // deliberately not serialized (nondeterministic)
	wm.WorkPerWave = nil // deliberately not serialized (test-side counts)
	wm.RepairSettlesPerWave = nil
	if !reflect.DeepEqual(wm, back.Metrics) {
		t.Fatalf("metrics did not round-trip:\nwant %+v\ngot  %+v", wm, back.Metrics)
	}
	if !reflect.DeepEqual(res.Trees, back.Trees) {
		t.Fatal("trees did not round-trip")
	}
	again, err := MarshalRouteResult(chip, back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-marshal is not byte-identical")
	}

	// Determinism across runs: an identical fresh run marshals to the
	// identical bytes — the property the service result cache relies on.
	res2, err := RouteChip(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := MarshalRouteResult(chip, res2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("two identical runs marshal differently")
	}
}

// The marshaled route result — metrics and every net's tree — must be
// byte-identical across thread counts. The service layer's route cache
// keys deliberately exclude the thread count; this test is what makes
// that exclusion sound.
func TestMarshalRouteResultThreadCountIndependent(t *testing.T) {
	spec := ChipSuite(0.002)[0]
	chip, err := GenerateChip(spec)
	if err != nil {
		t.Fatal(err)
	}
	var ref []byte
	for _, threads := range []int{1, 3, 8} {
		opt := DefaultRouterOptions()
		opt.Waves = 2
		opt.Threads = threads
		res, err := RouteChip(chip, CD, opt)
		if err != nil {
			t.Fatal(err)
		}
		data, err := MarshalRouteResult(chip, res)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = data
			continue
		}
		if !bytes.Equal(ref, data) {
			t.Fatalf("threads=%d marshals differently from threads=1", threads)
		}
	}
}

func TestUnmarshalRouteResultRejectsCorruptTrees(t *testing.T) {
	spec := ChipSuite(0.002)[0]
	chip, err := GenerateChip(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Non-adjacent edge inside a tree must be rejected by the same
	// validation the single-tree path uses.
	bad := []byte(`{"metrics":{},"trees":[{"edges":[[[0,0,0],[3,0,0]]],"wire_types":[0]}]}`)
	if _, err := UnmarshalRouteResult(chip, bad); err == nil {
		t.Fatal("accepted a non-adjacent edge")
	}
	// Edges without their wire types are refused, not priced on type 0.
	for _, wts := range []string{``, `,"wire_types":null`} {
		bare := []byte(`{"metrics":{},"trees":[{"edges":[[[0,0,0],[0,0,1]]]` + wts + `}]}`)
		if _, err := UnmarshalRouteResult(chip, bare); err == nil || !strings.Contains(err.Error(), "0 wire types for 1 edges") {
			t.Fatalf("%s: error %v, want the wire-type count", bare, err)
		}
	}
	if _, err := UnmarshalRouteResult(chip, []byte("{")); err == nil {
		t.Fatal("accepted malformed JSON")
	}
	// The trees are indexed like the netlist: one per net, no fewer.
	short := []byte(`{"metrics":{},"trees":[null]}`)
	want := fmt.Sprintf("1 trees for %d nets", len(chip.NL.Nets))
	if _, err := UnmarshalRouteResult(chip, short); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("%s: error %v, want %q", short, err, want)
	}
}

// The checkpoint codec must reject documents it cannot faithfully
// decode: wrong version, mangled layer directions, mismatched vector
// lengths, corrupt trees.
func TestUnmarshalCheckpointRejectsCorruptDocuments(t *testing.T) {
	chip, err := GenerateChip(ChipSuite(0.002)[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultRouterOptions()
	opt.Waves = 1
	_, st, err := RouteChipCheckpoint(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := MarshalCheckpoint(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalCheckpoint(blob); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}

	corrupt := func(name string, edit func(cp *CheckpointJSON)) {
		t.Helper()
		var cp CheckpointJSON
		if err := json.Unmarshal(blob, &cp); err != nil {
			t.Fatal(err)
		}
		edit(&cp)
		bad, err := json.Marshal(&cp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalCheckpoint(bad); err == nil {
			t.Errorf("%s: corrupt checkpoint accepted", name)
		}
	}
	corrupt("version", func(cp *CheckpointJSON) { cp.Version = 99 })
	corrupt("layer dirs", func(cp *CheckpointJSON) { cp.LayerDirs = "XXXX" })
	corrupt("short mult", func(cp *CheckpointJSON) { cp.Mult = cp.Mult[:3] })
	corrupt("tiny grid", func(cp *CheckpointJSON) { cp.NX = 0 })
	corrupt("truncated weights", func(cp *CheckpointJSON) { cp.Nets[0].Weights = nil })
	corrupt("truncated delays", func(cp *CheckpointJSON) {
		cp.Nets[0].Delays = append(cp.Nets[0].Delays, 1)
	})
	corrupt("corrupt tree", func(cp *CheckpointJSON) {
		for i := range cp.Nets {
			if tr := cp.Nets[i].Tree; tr != nil && len(tr.Edges) > 0 {
				tr.Edges[0][1] = [3]int32{tr.Edges[0][0][0] + 5, tr.Edges[0][0][1], tr.Edges[0][0][2]}
				return
			}
		}
		t.Fatal("no tree to corrupt")
	})
	if _, err := UnmarshalCheckpoint([]byte("{")); err == nil {
		t.Error("truncated document accepted")
	}
}

// Documents of earlier versions are refused with the version error:
// version 1, the layout that also carried the producing run's metric
// row, the drift reference and per-net snapshot costs, and version 2,
// whose nets named the oracle behind their tree. (Their members under
// version 3 are refused as unknown: TestUnmarshalCheckpointReadsOneLayout.)
func TestUnmarshalCheckpointRefusesV1(t *testing.T) {
	for v, doc := range map[int]string{
		1: `{"version":1,"method":"cd","nx":1,"ny":1,"layers":2,"layer_dirs":"HV","cap":[24],"mult":[1],"ref":[1],` +
			`"metrics":{},"nets":[{"driver":[0,0],"sinks":[],"weights":[],"budgets":[],"delays":[],"last_cost":0}]}`,
		2: `{"version":2,"method":"cd","nx":1,"ny":1,"layers":2,"layer_dirs":"HV","cap":[24],"mult":[1],` +
			`"nets":[{"driver":[0,0],"sinks":[],"weights":[],"budgets":[],"delays":[],"oracle":"cd"}]}`,
	} {
		want := fmt.Sprintf("costdist: checkpoint version %d unsupported (want 3)", v)
		if _, err := UnmarshalCheckpoint([]byte(doc)); err == nil || err.Error() != want {
			t.Fatalf("v%d document: error %v, want %q", v, err, want)
		}
	}
}

// checkpointHeader is a checkpoint document of an n×n×8 grid with empty
// price vectors and no nets: a header that claims a grid it carries no
// data for.
func checkpointHeader(n int32) []byte {
	return []byte(fmt.Sprintf(`{"version":3,"method":"cd","nx":%d,"ny":%d,"layers":8,"layer_dirs":"HVHVHVHV",`+
		`"cap":[],"mult":[],"nets":[]}`, n, n))
}

// A checkpoint whose grid its vectors do not cover is refused before the
// grid is built: the 5000×5000×8 header costs its own decode, not the
// 1.5 GB of a grid, and the headers whose int32 vertex or segment counts
// would wrap (20000²) or not fit a slice (50000²) are errors, not panics.
func TestUnmarshalCheckpointValidatesBeforeAllocating(t *testing.T) {
	for _, tc := range []struct {
		n       int32
		wantErr string
	}{
		{5000, "costdist: checkpoint has 0/0 cap/mult segments, grid has 374960000"},
		{20000, "costdist: checkpoint grid 20000x20000x8 too large (3200000000 vertices, 5999840000 segments)"},
		{50000, "costdist: checkpoint grid 50000x50000x8 too large (20000000000 vertices, 37499600000 segments)"},
	} {
		doc := checkpointHeader(tc.n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := UnmarshalCheckpoint(doc)
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != tc.wantErr {
			t.Fatalf("%d² header: error %v, want %q", tc.n, err, tc.wantErr)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
			t.Fatalf("refusing the %d-byte %d² header allocated %d bytes, want under 64 KB", len(doc), tc.n, b)
		}
	}
}

// Unconstrained sinks carry +Inf budgets; the codec encodes them as
// null and must bring them back as +Inf.
func TestCheckpointBudgetInfRoundTrip(t *testing.T) {
	chip, err := GenerateChip(ChipSuite(0.002)[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultRouterOptions()
	opt.Waves = 1
	_, st, err := RouteChipCheckpoint(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	st.Nets[0].Budgets[0] = math.Inf(1)
	blob, err := MarshalCheckpoint(st)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(st2.Nets[0].Budgets[0], 1) {
		t.Fatalf("budget came back %v, want +Inf", st2.Nets[0].Budgets[0])
	}
	blob2, err := MarshalCheckpoint(st2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("Inf budgets break byte stability")
	}
}

// The reference wire form: the structs encoding/json wrote and read the
// checkpoint through before wire.go. MarshalCheckpoint, MarshalTree and
// MarshalRouteResult must write the bytes encoding/json makes of them,
// and UnmarshalCheckpoint must read a document into the state the
// reference decode gives, refusing whatever it refuses (wire_test.go,
// FuzzUnmarshalCheckpoint, FuzzUnmarshalRouteResult).

// budgetsJSON carries a per-sink delay budget vector on the wire: a sink
// with no timing endpoint downstream has budget +Inf, encoded as null.
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

// CheckpointNetJSON is one net's state inside a CheckpointJSON document.
type CheckpointNetJSON struct {
	Driver  [2]int32       `json:"driver"`
	Sinks   [][2]int32     `json:"sinks"`
	Weights []float64      `json:"weights"`
	Budgets budgetsJSON    `json:"budgets"`
	Delays  []float64      `json:"delays"`
	Tree    *RouteTreeJSON `json:"tree,omitempty"`
}

// CheckpointJSON is the checkpoint document.
type CheckpointJSON struct {
	Version   int                 `json:"version"`
	Method    string              `json:"method"`
	NX        int32               `json:"nx"`
	NY        int32               `json:"ny"`
	Layers    int                 `json:"layers"`
	LayerDirs string              `json:"layer_dirs"`
	Cap       []float32           `json:"cap"`
	Mult      []float32           `json:"mult"`
	Nets      []CheckpointNetJSON `json:"nets"`
}

// encodeTreeSteps flattens a tree into RouteTreeJSON's edges and wire
// types.
func encodeTreeSteps(g *grid.Graph, tr *Tree) (edges [][2][3]int32, wts []int8) {
	for _, st := range tr.Steps {
		fx, fy, fl := g.XYL(st.From)
		tx, ty, tl := g.XYL(st.Arc.To)
		edges = append(edges, [2][3]int32{{fx, fy, fl}, {tx, ty, tl}})
		wts = append(wts, st.Arc.WT)
	}
	return edges, wts
}

// refMarshalCheckpoint is MarshalCheckpoint through encoding/json.
func refMarshalCheckpoint(st *RouterState) ([]byte, error) {
	g, err := checkpointGraph(st.NX, st.NY, st.Layers, st.LayerDirs, len(st.Cap), len(st.Mult))
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
		Nets:      make([]CheckpointNetJSON, len(st.Nets)),
	}
	for ni := range st.Nets {
		ns := &st.Nets[ni]
		nj := CheckpointNetJSON{
			Driver:  [2]int32{ns.Sig.Driver.X, ns.Sig.Driver.Y},
			Sinks:   make([][2]int32, len(ns.Sig.Sinks)),
			Weights: ns.Weights,
			Budgets: budgetsJSON(ns.Budgets),
			Delays:  ns.Delays,
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

// refUnmarshalCheckpoint is UnmarshalCheckpoint through encoding/json.
func refUnmarshalCheckpoint(data []byte) (*RouterState, error) {
	var f CheckpointJSON
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("costdist: parsing checkpoint: %w", err)
	}
	if f.Version != CheckpointVersion {
		return nil, fmt.Errorf("costdist: checkpoint version %d unsupported (want %d)", f.Version, CheckpointVersion)
	}
	g, err := checkpointGraph(f.NX, f.NY, f.Layers, f.LayerDirs, len(f.Cap), len(f.Mult))
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
		Nets:      make([]RouterNetState, len(f.Nets)),
	}
	for ni := range f.Nets {
		nj := &f.Nets[ni]
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
			Sig:     sig,
			Weights: nj.Weights,
			Budgets: []float64(nj.Budgets),
			Delays:  nj.Delays,
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

// refMarshalTree is MarshalTree through encoding/json.
func refMarshalTree(in *Instance, tr *Tree) ([]byte, error) {
	ev, err := Evaluate(in, tr)
	if err != nil {
		return nil, err
	}
	out := TreeJSON{
		Total: ev.Total, CongCost: ev.CongCost, DelayCost: ev.DelayCost,
		SinkDelay: ev.SinkDelay, WireSteps: ev.WireSteps, Vias: ev.Vias,
	}
	out.Edges, out.WireTypes = encodeTreeSteps(in.G, tr)
	return json.Marshal(out)
}

// refMarshalRouteResult is MarshalRouteResult through encoding/json.
func refMarshalRouteResult(chip *Chip, res *RouteResult) ([]byte, error) {
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
	return json.Marshal(out)
}

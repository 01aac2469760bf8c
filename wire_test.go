package costdist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// checkWireBytes requires a writer's output to equal the reference's, or
// both to fail.
func checkWireBytes(t *testing.T, name string, got []byte, err error, want []byte, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference error %v", name, err, wantErr)
	}
	if err != nil || bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-60, 0)
	t.Fatalf("%s: differs from the reference at byte %d:\ngot  …%s\nwant …%s", name, i,
		got[lo:min(i+60, len(got))], want[lo:min(i+60, len(want))])
}

// checkCheckpointWire marshals st with MarshalCheckpoint and with the
// reference and requires the same bytes, or an error from both. It then
// decodes those bytes both ways: both must accept them and give deeply
// equal states.
func checkCheckpointWire(t *testing.T, name string, st *RouterState) {
	t.Helper()
	got, err := MarshalCheckpoint(st)
	want, wantErr := refMarshalCheckpoint(st)
	checkWireBytes(t, name, got, err, want, wantErr)
	if err != nil {
		return
	}
	back, err := UnmarshalCheckpoint(got)
	if err != nil {
		t.Fatalf("%s: own output refused: %v", name, err)
	}
	ref, err := refUnmarshalCheckpoint(got)
	if err != nil {
		t.Fatalf("%s: the reference refuses the output: %v", name, err)
	}
	if !reflect.DeepEqual(back, ref) {
		t.Fatalf("%s: decoded state differs from the reference decode", name)
	}
}

// The writers give the bytes encoding/json gives the reference structs,
// and UnmarshalCheckpoint the state the reference decode gives, on the
// checkpoints and results of cold and warm+repair routes of c1@0.005 and
// c1@0.01, and MarshalTree on CD trees of the captured nets.
func TestWireMatchesReferenceOnRoutes(t *testing.T) {
	for _, scale := range []float64{0.005, 0.01} {
		name := fmt.Sprintf("c1@%g", scale)
		chip := mkChip(t, 0, scale)
		opt := DefaultRouterOptions()
		opt.Waves = 3
		opt.CaptureWave = 0
		cold, st, err := RouteChipCheckpoint(chip, CD, opt)
		if err != nil {
			t.Fatal(err)
		}
		checkCheckpointWire(t, name+" cold", st)
		got, err := MarshalRouteResult(chip, cold)
		want, wantErr := refMarshalRouteResult(chip, cold)
		checkWireBytes(t, name+" cold result", got, err, want, wantErr)
		for i, in := range cold.Captured[:min(len(cold.Captured), 40)] {
			tr, err := SolveCD(in, DefaultCDOptions())
			if err != nil {
				t.Fatal(err)
			}
			got, err := MarshalTree(in, tr)
			want, wantErr := refMarshalTree(in, tr)
			checkWireBytes(t, fmt.Sprintf("%s tree %d", name, i), got, err, want, wantErr)
		}

		blob, err := MarshalCheckpoint(st)
		if err != nil {
			t.Fatal(err)
		}
		from, err := UnmarshalCheckpoint(blob)
		if err != nil {
			t.Fatal(err)
		}
		pert, _, err := PerturbChip(chip, 0.05, 9)
		if err != nil {
			t.Fatal(err)
		}
		opt.CaptureWave = -1
		opt.RepairTol = 0.25
		warm, st2, err := RouteChipFrom(from, pert, CD, opt)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Metrics.NetsRepaired == 0 {
			t.Fatalf("%s: the ECO repaired no net", name)
		}
		checkCheckpointWire(t, name+" warm+repair", st2)
		got, err = MarshalRouteResult(pert, warm)
		want, wantErr = refMarshalRouteResult(pert, warm)
		checkWireBytes(t, name+" warm+repair result", got, err, want, wantErr)
	}
}

// Every document the writers emit is compact: MarshalTree,
// MarshalRouteResult and MarshalCheckpoint each give the bytes
// json.Compact gives them back, on a routed c1@0.002.
func TestWireIsCompact(t *testing.T) {
	chip := mkChip(t, 0, 0.002)
	opt := DefaultRouterOptions()
	opt.Waves = 2
	opt.CaptureWave = 0
	res, st, err := RouteChipCheckpoint(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Captured) == 0 {
		t.Fatal("no net captured")
	}
	in := res.Captured[0]
	tr, err := SolveCD(in, DefaultCDOptions())
	if err != nil {
		t.Fatal(err)
	}
	tree, err := MarshalTree(in, tr)
	if err != nil {
		t.Fatal(err)
	}
	result, err := MarshalRouteResult(chip, res)
	if err != nil {
		t.Fatal(err)
	}
	checkpoint, err := MarshalCheckpoint(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []struct {
		name string
		b    []byte
	}{{"MarshalTree", tree}, {"MarshalRouteResult", result}, {"MarshalCheckpoint", checkpoint}} {
		var compact bytes.Buffer
		if err := json.Compact(&compact, doc.b); err != nil {
			t.Fatalf("%s: %v", doc.name, err)
		}
		checkWireBytes(t, doc.name+" against its json.Compact", doc.b, nil, compact.Bytes(), nil)
	}
}

// wireValues are floats the writers must spell as encoding/json does:
// both zeros, both sides of the 1e-6 and 1e21 format switches at 32 and
// 64 bits, one- and two-digit negative exponents, the extremes.
var wireValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789, 1e20, 9.999999e20, 1e21, -1e21, 1e22,
	1e-6, 9.99999e-7, -1e-7, 1.5e-9, 2.5e-10, 1e-300, 5e-324, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat32, math.MaxFloat32, float64(float32(1e-6)), float64(float32(1e21)),
	float64(float32(9.99999e-7)), float64(float32(1e-7)),
}

// wireNames are plain names and strings the checkpoint writer refuses:
// HTML-escaped, non-ASCII, escaped, invalid UTF-8. As metric-row keys
// encoding/json quotes them all.
var wireNames = []string{"", "cd", "pd", "a<b>&c", "ünïcödé", "tab\tquote\"back\\", "line\u2028sep", "\xff"}

func wireValue(rng *rand.Rand) float64 {
	if rng.IntN(3) == 0 {
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.IntN(60)-30))
	}
	return wireValues[rng.IntN(len(wireValues))]
}

func wireValue32(rng *rand.Rand) float32 {
	v := float32(wireValue(rng))
	if math.IsInf(float64(v), 0) {
		return math.MaxFloat32
	}
	return v
}

// randomWalk is a chain of up to 6 steps along g's arcs.
func randomWalk(rng *rand.Rand, g *Graph) *Tree {
	tr := &Tree{}
	v := Vertex(rng.Int32N(g.NumV()))
	for n := 1 + rng.IntN(6); len(tr.Steps) < n; {
		var arcs []Arc
		g.Arcs(v, g.FullWindow(), func(a Arc) bool {
			arcs = append(arcs, a)
			return true
		})
		if len(arcs) == 0 {
			break
		}
		a := arcs[rng.IntN(len(arcs))]
		tr.Steps = append(tr.Steps, Step{From: v, Arc: a})
		v = a.To
	}
	return tr
}

// randomState is a checkpointable state of a small grid whose vectors
// hold wireValues, with nil and empty vectors, nil, empty and walked
// trees, +Inf budgets and wireNames for the method and, one in eight,
// for layer_dirs. One in ten carries a value encoding/json refuses.
func randomState(rng *rand.Rand) (*RouterState, *Graph) {
	nx, ny, layers := 1+rng.Int32N(5), 1+rng.Int32N(5), 2+rng.IntN(3)
	tech := DefaultTech(layers)
	g := NewGrid(nx, ny, BuildLayers(tech), tech.GCellUM)
	vec32 := func() []float32 {
		v := make([]float32, g.NumSegs())
		for i := range v {
			v[i] = wireValue32(rng)
		}
		return v
	}
	name := func() string { return wireNames[rng.IntN(len(wireNames))] }
	st := &RouterState{
		Method: name(), NX: nx, NY: ny, Layers: layers, LayerDirs: g.LayerDirs(),
		Cap: vec32(), Mult: vec32(),
	}
	if rng.IntN(8) == 0 {
		st.LayerDirs = name()
	}
	if n := rng.IntN(4); n > 0 || rng.IntN(2) == 0 {
		st.Nets = make([]RouterNetState, n)
	}
	for i := range st.Nets {
		ns := &st.Nets[i]
		k := rng.IntN(4)
		ns.Sig.Driver = Pt{X: rng.Int32N(nx), Y: rng.Int32N(ny)}
		if k > 0 || rng.IntN(2) == 0 {
			ns.Sig.Sinks = make([]Pt, k)
			for j := range ns.Sig.Sinks {
				ns.Sig.Sinks[j] = Pt{X: rng.Int32N(nx), Y: rng.Int32N(ny)}
			}
		}
		vec := func(inf bool) []float64 {
			if k == 0 && rng.IntN(2) == 0 {
				return nil
			}
			v := make([]float64, k)
			for j := range v {
				v[j] = wireValue(rng)
				if inf && rng.IntN(3) == 0 {
					v[j] = math.Inf(1)
				}
			}
			return v
		}
		ns.Weights, ns.Budgets, ns.Delays = vec(false), vec(true), vec(false)
		switch rng.IntN(4) {
		case 0:
		case 1:
			ns.Tree = &Tree{}
		default:
			ns.Tree = randomWalk(rng, g)
		}
	}
	if rng.IntN(10) == 0 {
		bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.IntN(3)]
		switch rng.IntN(3) {
		case 0:
			st.Mult[rng.IntN(len(st.Mult))] = float32(bad)
		case 1:
			if len(st.Nets) > 0 && len(st.Nets[0].Delays) > 0 {
				st.Nets[0].Delays[0] = bad
			}
		case 2:
			if len(st.Nets) > 0 && len(st.Nets[0].Budgets) > 0 && !math.IsInf(bad, 1) {
				st.Nets[0].Budgets[0] = bad
			}
		}
	}
	return st, g
}

// randomMetrics is a metric row of wireValues and wireNames; one in ten
// carries a value encoding/json refuses.
func randomMetrics(rng *rand.Rand) RouteMetrics {
	m := RouteMetrics{
		WS: wireValue(rng), Objective: wireValue(rng), NetsSolved: rng.Int64N(100),
		SolvedPerWave:  []int{rng.IntN(9), rng.IntN(9)},
		SolvesByOracle: map[string]int64{wireNames[rng.IntN(len(wireNames))]: 1},
	}
	if rng.IntN(10) == 0 {
		m.Objective = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.IntN(3)]
	}
	return m
}

// plainName reports whether the checkpoint writer takes s as a name:
// ASCII that encoding/json writes unescaped.
func plainName(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	q, _ := json.Marshal(s)
	return string(q) == `"`+s+`"`
}

// refuseNames requires MarshalCheckpoint to refuse a state whose
// layer_dirs are not its grid's, dirs, or whose method is not a plain
// name, naming the string at fault (the grid is checked before the
// method is written), and then puts dirs and "cd" in their place. It
// reports whether there was one.
func refuseNames(t *testing.T, name string, st *RouterState, dirs string) bool {
	t.Helper()
	bad := st.Method
	switch {
	case st.LayerDirs != dirs:
		bad = st.LayerDirs
	case plainName(st.Method):
		return false
	}
	if _, err := MarshalCheckpoint(st); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
		t.Fatalf("%s: error %v, want one naming %q", name, err, bad)
	}
	if !plainName(st.Method) {
		st.Method = "cd"
	}
	st.LayerDirs = dirs
	return true
}

// The same bytes, and the same decoded state, on seeded random states
// and route results; NaN or ±Inf prices, delays and metrics and NaN or
// −Inf budgets are errors on both sides. A state whose method is not a
// plain name, or whose layer_dirs are not its grid's, is refused, and is
// then compared with plain names in their place.
func TestWireMatchesReferenceOnRandomStates(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 1))
	failed, renamed := 0, 0
	for i := 0; i < 400; i++ {
		st, g := randomState(rng)
		name := fmt.Sprintf("state %d", i)
		if refuseNames(t, name, st, g.LayerDirs()) {
			renamed++
		}
		checkCheckpointWire(t, name, st)
		if _, err := MarshalCheckpoint(st); err != nil {
			failed++
		}
		res := &RouteResult{Metrics: randomMetrics(rng), Trees: []*Tree{nil, {}, randomWalk(rng, g)}}
		got, err := MarshalRouteResult(&Chip{G: g}, res)
		want, wantErr := refMarshalRouteResult(&Chip{G: g}, res)
		checkWireBytes(t, name+" result", got, err, want, wantErr)
	}
	if failed == 0 || failed > 80 {
		t.Fatalf("%d of 400 states refused, want some and at most 80", failed)
	}
	if renamed == 0 {
		t.Fatal("no state named its method or layer_dirs with a refused string")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(-1)} {
		st, _ := randomState(rand.New(rand.NewPCG(1, 1)))
		st.Method = "cd"
		st.Nets = []RouterNetState{{Sig: PinSig{Sinks: []Pt{{}}}, Weights: []float64{1}, Budgets: []float64{bad}, Delays: []float64{1}}}
		if _, err := MarshalCheckpoint(st); err == nil {
			t.Fatalf("budget %v marshaled", bad)
		}
	}
}

// coldCheckpoint routes c1@0.01 cold over 4 waves — the design of
// BenchmarkECO and of the eco-warm workload — and returns its state.
func coldCheckpoint(tb testing.TB) *RouterState {
	tb.Helper()
	chip, err := GenerateChip(ChipSuite(0.01)[0])
	if err != nil {
		tb.Fatal(err)
	}
	opt := DefaultRouterOptions()
	opt.Waves = 4
	_, st, err := RouteChipCheckpoint(chip, CD, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// The codec's allocations are counts. UnmarshalCheckpoint of the
// c1@0.01 checkpoint allocates its per-net vectors and trees and little
// else (19 588 allocations through encoding/json); MarshalCheckpoint its
// buffer and the checked grid (7 160 through encoding/json).
func TestCheckpointCodecAllocationBound(t *testing.T) {
	st := coldCheckpoint(t)
	blob, err := MarshalCheckpoint(st)
	if err != nil {
		t.Fatal(err)
	}
	dec := testing.AllocsPerRun(3, func() {
		if _, err := UnmarshalCheckpoint(blob); err != nil {
			t.Fatal(err)
		}
	})
	enc := testing.AllocsPerRun(3, func() {
		if _, err := MarshalCheckpoint(st); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d nets, %d bytes: UnmarshalCheckpoint %.0f allocations, MarshalCheckpoint %.0f", len(st.Nets), len(blob), dec, enc)
	if dec > 5000 {
		t.Errorf("UnmarshalCheckpoint allocates %.0f times, pinned at 5000", dec)
	}
	if enc > 100 {
		t.Errorf("MarshalCheckpoint allocates %.0f times, pinned at 100", enc)
	}
}

// MarshalTree allocates at most 4 times beyond the Evaluate call it
// makes: its buffer, sized once.
func TestMarshalTreeAllocationBound(t *testing.T) {
	doc, err := os.ReadFile("examples/instances/congested.json")
	if err != nil {
		t.Fatal(err)
	}
	in, err := ParseInstance(doc)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := SolveCD(in, DefaultCDOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The fewest of several runs: Evaluate's rooting scratch sits in a
	// sync.Pool, which -race empties at random.
	least := func(f func()) float64 {
		n := math.Inf(1)
		for i := 0; i < 16; i++ {
			n = min(n, testing.AllocsPerRun(1, f))
		}
		return n
	}
	eval := least(func() {
		if _, err := Evaluate(in, tr); err != nil {
			t.Fatal(err)
		}
	})
	marshal := least(func() {
		if _, err := MarshalTree(in, tr); err != nil {
			t.Fatal(err)
		}
	})
	if marshal-eval > 4 {
		t.Fatalf("MarshalTree allocates %.0f times, Evaluate %.0f: %.0f beyond it, pinned at 4", marshal, eval, marshal-eval)
	}
}

// The reader reads what MarshalCheckpoint can write — null weights and
// delays, [] everywhere, null budgets, a tree without steps, an absent
// tree, any number spelling — into the state the reference decode
// gives. Every other layout is refused with its byte offset: null, {} or
// an absent or reordered member where the writer always writes one,
// null anywhere else, a tree's edges without their wire types, a string
// that is not a plain name, white space, unknown members (version 1's
// ref, metrics and last_cost and version 2's oracle among them).
// Documents in the layout that are wrong for their grid are refused too.
func TestUnmarshalCheckpointReadsOneLayout(t *testing.T) {
	// A 1×1×2 grid has one segment, a via.
	const head = `{"version":3,"method":"cd","nx":1,"ny":1,"layers":2,"layer_dirs":"HV"`
	doc := func(nets string) []byte {
		return []byte(head + `,"cap":[24],"mult":[1],"nets":[` + nets + `]}`)
	}
	// method is a document without nets whose method is spelled m.
	method := func(m string) []byte {
		return []byte(`{"version":3,"method":` + m + `,"nx":1,"ny":1,"layers":2,"layer_dirs":"HV","cap":[24],"mult":[1],"nets":[]}`)
	}
	// net is a net without sinks, followed by rest.
	net := func(rest string) string {
		return `{"driver":[0,0],"sinks":[],"weights":[],"budgets":[],"delays":[]` + rest + `}`
	}
	// sink is a one-sink net whose weight is spelled w.
	sink := func(w string) []byte {
		return doc(`{"driver":[0,0],"sinks":[[0,0]],"weights":[` + w + `],"budgets":[1],"delays":[1]}`)
	}
	const via = `"edges":[[[0,0,0],[0,0,1]]]`
	for _, data := range [][]byte{
		doc(``), doc(net(``)), doc(net(``) + `,` + net(`,"tree":{"edges":null}`)),
		doc(`{"driver":[0,0],"sinks":[],"weights":null,"budgets":[],"delays":null}`),
		doc(`{"driver":[0,0],"sinks":[[0,0]],"weights":[0.5],"budgets":[null],"delays":[1]}`),
		doc(`{"driver":[0,0],"sinks":[[0,0],[0,0]],"weights":[1,2],"budgets":[-0,null],"delays":[1E2,0]}`),
		sink(`-0`), sink(`1.5e-9`), sink(`-12.5E+3`), sink(`0.25`),
		doc(net(`,"tree":{"edges":null}`)), doc(net(`,"tree":{"edges":[],"wire_types":[]}`)),
		doc(net(`,"tree":{` + via + `,"wire_types":[-1]}`)),
		[]byte(head + `,"cap":[2.4e1],"mult":[10E-1],"nets":[]}`),
	} {
		st, err := UnmarshalCheckpoint(data)
		if err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		ref, err := refUnmarshalCheckpoint(data)
		if err != nil {
			t.Fatalf("%s: the reference refuses it: %v", data, err)
		}
		if !reflect.DeepEqual(st, ref) {
			t.Fatalf("%s: state differs from the reference decode:\n%+v\n%+v", data, st.Nets, ref.Nets)
		}
	}
	for _, data := range [][]byte{
		// Nets and members the writer always writes.
		doc(`null`), doc(`{}`), doc(net(``) + `,null`), []byte(head + `,"cap":[24],"mult":[1],"nets":null}`),
		doc(`{"driver":[0,0],"sinks":[],"budgets":[],"delays":[]}`),
		doc(`{"sinks":[],"driver":[0,0],"weights":[],"budgets":[],"delays":[]}`),
		doc(`{"driver":[0,0],"sinks":[],"weights":[],"budgets":[],"delays":[],"tree":{"edges":null},"oracle":"cd"}`),
		[]byte(`{"version":3,"nx":1,"ny":1,"layers":2,"layer_dirs":"HV","cap":[24],"mult":[1],"nets":[]}`),
		[]byte(`{"version":3,"method":"cd","ny":1,"nx":1,"layers":2,"layer_dirs":"HV","cap":[24],"mult":[1],"nets":[]}`),
		[]byte(head + `,"cap":[24],"mult":[1]}`), []byte(`{"method":"cd","version":2}`),
		// null where the writer writes none.
		doc(`{"driver":[null,0],"sinks":[],"weights":[],"budgets":[],"delays":[]}`),
		doc(`{"driver":[0,0],"sinks":[null],"weights":[1],"budgets":[1],"delays":[1]}`),
		doc(`{"driver":[0,0],"sinks":[[0,null]],"weights":[1],"budgets":[1],"delays":[1]}`),
		sink(`null`), doc(`{"driver":[0,0],"sinks":[[0,0]],"weights":[1],"budgets":[1],"delays":[null]}`),
		doc(`{"driver":[0,0],"sinks":[],"weights":[],"budgets":null,"delays":[]}`),
		[]byte(head + `,"cap":[null],"mult":[1],"nets":[]}`), []byte(head + `,"cap":[24],"mult":[null],"nets":[]}`),
		method(`null`),
		doc(net(`,"oracle":null`)), doc(net(`,"tree":null`)), doc(net(`,"tree":{}`)),
		doc(net(`,"tree":{` + via + `,"wire_types":null}`)), doc(net(`,"tree":{"edges":null,"wire_types":[]}`)),
		// A tree's edges without their wire types.
		doc(net(`,"tree":{` + via + `}`)),
		// Strings that are not plain names.
		method(`"c\u0064"`), method(`"ünï"`), method(`"a\"b"`), method(`"\u003c"`), method(`"cd`),
		method(`"c\/d"`),
		[]byte(`{"version":3,"method":"cd","nx":1,"ny":1,"layers":2,"layer_dirs":"H\u0056","cap":[24],"mult":[1],"nets":[]}`),
		// Numbers outside JSON's grammar or their type.
		doc(`{"driver":[0,1.5],"sinks":[],"weights":[],"budgets":[],"delays":[]}`),
		doc(`{"driver":[0,0],"sinks":[[0,0]],"weights":[1],"budgets":[1e400],"delays":[1]}`),
		doc(net(`,"tree":{` + via + `,"wire_types":[128]}`)), doc(`01`), sink(`01`), sink(`1.`), sink(`+1`),
		// White space, trailing data and unknown members.
		doc(net(``) + ` `), doc(net(``) + `,`), doc(net(`,"extra":1`)), doc(net(`,"last_cost":1`)),
		doc(net(`,"oracle":"cd"`)), doc(net(``) + `,` + net(`,"oracle":"cd"`)),
		doc(net(`,"oracle":"cd","tree":{"edges":null}`)), doc(net(`,"oracle":"pd","tree":{` + via + `,"wire_types":[-1]}`)),
		[]byte(head + `,"cap":[24],"mult":[1],"ref":[1],"nets":[]}`),
		[]byte(head + `,"cap":[24],"mult":[1],"metrics":{},"nets":[]}`),
		[]byte(head + `,"cap":[24],"mult":[1],"nets":[]}x`), []byte(` ` + head + `,"cap":[24],"mult":[1],"nets":[]}`),
	} {
		if _, err := UnmarshalCheckpoint(data); err == nil || !strings.Contains(err.Error(), "parsing checkpoint: byte ") {
			t.Fatalf("%s: error %v, want one naming a byte offset", data, err)
		}
	}
	for _, data := range [][]byte{
		doc(net(`,"tree":{` + via + `,"wire_types":[]}`)),
		doc(`{"driver":[0,0],"sinks":[[0,0]],"weights":[],"budgets":[],"delays":[]}`),
		doc(net(`,"tree":{"edges":[[[0,0,0],[0,0,1]]],"wire_types":[0]}`)),
		[]byte(head + `,"cap":[24,1],"mult":[1],"nets":[]}`),
	} {
		if _, err := UnmarshalCheckpoint(data); err == nil {
			t.Fatalf("%s: accepted", data)
		}
	}
}

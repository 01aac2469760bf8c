package costdist

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// A document whose pins lie outside its grid is rejected before the grid
// is built: the refusal of a 1024×1024×8 document (8 M vertices) costs
// its own decode, not the grid's hundreds of megabytes.
func TestBuildValidatesBeforeAllocating(t *testing.T) {
	for _, tc := range []struct{ doc, wantErr string }{
		{`{"nx":1024,"ny":1024,"layers":8,"root":[0,0,0],"sinks":[{"x":1,"y":1,"l":0,"w":1},{"x":5000,"y":1,"l":0,"w":1}]}`,
			"sink 1: costdist: pin (5000,1,0) outside grid"},
		{`{"nx":1024,"ny":1024,"layers":8,"root":[0,0,8],"sinks":[{"x":1,"y":1,"l":0,"w":1}]}`,
			"costdist: pin (0,0,8) outside grid"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ParseInstance([]byte(tc.doc))
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != tc.wantErr {
			t.Fatalf("error %v, want %q", err, tc.wantErr)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
			t.Fatalf("rejecting %s allocated %d bytes, want under 64 KB", tc.doc, b)
		}
	}
}

// A sink weight outside [0, MaxSinkWeight] and an eta outside [0, 1/2]
// are refused, the weight with the sink named: on a 16×16×4 three-sink
// document, weight −1 used to solve to objective −31 737, −1e308 to
// −Inf, and 1e308 failed inside core.Solve. At the cap and at eta 1/2
// the document solves to a finite objective.
func TestBuildRefusesWeightAndEtaOutOfRange(t *testing.T) {
	doc := func(w, eta string) string {
		return `{"nx":16,"ny":16,"layers":4,"root":[2,2,0],"sinks":[{"x":12,"y":3,"l":0,"w":0.01},` +
			`{"x":7,"y":13,"l":0,"w":` + w + `},{"x":14,"y":14,"l":0,"w":0.02}],"eta":` + eta + `}`
	}
	for _, tc := range []struct{ w, eta, wantErr string }{
		{"-1", "0.25", "sink 1: costdist: weight -1 outside [0, 1e+06]"},
		{"-1e308", "0.25", "sink 1: costdist: weight -1e+308 outside [0, 1e+06]"},
		{"1e308", "0.25", "sink 1: costdist: weight 1e+308 outside [0, 1e+06]"},
		{"0.01", "-0.01", "costdist: eta -0.01 outside [0, 0.5]"},
		{"0.01", "0.51", "costdist: eta 0.51 outside [0, 0.5]"},
	} {
		if _, err := ParseInstance([]byte(doc(tc.w, tc.eta))); err == nil || err.Error() != tc.wantErr {
			t.Fatalf("w %s, eta %s: error %v, want %q", tc.w, tc.eta, err, tc.wantErr)
		}
	}
	in, err := ParseInstance([]byte(doc(fmt.Sprint(MaxSinkWeight), "0.5")))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := SolveCD(in, DefaultCDOptions())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(in, tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(ev.Total, 0) || math.IsNaN(ev.Total) || ev.Total <= 0 {
		t.Fatalf("weight at the cap: objective %v, want finite and positive", ev.Total)
	}
}

// A congestion rectangle is clipped to the grid, not walked: one that
// spans all of int32 prices exactly the segments of the full-grid one.
func TestCongestionRectClippedToGrid(t *testing.T) {
	const head = `{"nx":6,"ny":6,"layers":2,"root":[0,0,0],"sinks":[{"x":5,"y":5,"l":1,"w":1}],"congestion":[`
	huge, err := ParseInstance([]byte(head + `{"x0":-2147483648,"y0":-2147483648,"x1":2147483647,"y1":2147483647,"l":0,"mult":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	full, err := ParseInstance([]byte(head + `{"x0":0,"y0":0,"x1":5,"y1":5,"l":0,"mult":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	priced := 0
	for i, m := range huge.C.Mult {
		if m != full.C.Mult[i] {
			t.Fatalf("segment %d: multiplier %v, full-grid rectangle gives %v", i, m, full.C.Mult[i])
		}
		if m == 3 {
			priced++
		}
	}
	if priced == 0 {
		t.Fatalf("rectangle priced %d segments", priced)
	}
}

// solverBuildDoc draws one instance document of the given shape: a root
// and n sinks anywhere in the grid and, when congested, priced
// rectangles of every kind a build has to handle — ordinary ones that
// overlap one another on layers 0 and 1, one clipped at the grid edge,
// one on each side of the layer stack and one with a multiplier below 1.
func solverBuildDoc(rng *rand.Rand, nx, ny int32, layers, n int, congested bool) []byte {
	var b strings.Builder
	pin := func() (x, y, l int32) { return rng.Int32N(nx), rng.Int32N(ny), rng.Int32N(int32(layers)) }
	x, y, l := pin()
	fmt.Fprintf(&b, `{"nx":%d,"ny":%d,"layers":%d,"root":[%d,%d,%d],"sinks":[`, nx, ny, layers, x, y, l)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		x, y, l := pin()
		fmt.Fprintf(&b, `{"x":%d,"y":%d,"l":%d,"w":%g}`, x, y, l, 0.05*rng.Float64())
	}
	fmt.Fprintf(&b, `],"dbif":-1,"seed":%d,"margin":%d`, rng.Uint64(), 2+rng.IntN(6))
	if congested {
		mult := func() float32 { return 1 + float32(rng.IntN(56))/8 }
		var rects []string
		rect := func(x0, y0, x1, y1, l int32, m float32) {
			rects = append(rects, fmt.Sprintf(`{"x0":%d,"y0":%d,"x1":%d,"y1":%d,"l":%d,"mult":%g}`, x0, y0, x1, y1, l, m))
		}
		for k := 0; k < 4; k++ {
			x0, y0 := rng.Int32N(nx), rng.Int32N(ny)
			rect(x0, y0, x0+rng.Int32N(nx/2), y0+rng.Int32N(ny/2), rng.Int32N(2), mult())
		}
		rect(-5, ny-4, 6, ny+10, rng.Int32N(int32(layers)), mult())
		rect(0, 0, nx, ny, int32(layers), mult())
		rect(0, 0, nx, ny, -1, mult())
		rect(0, 0, nx, ny, rng.Int32N(int32(layers)), 0.5)
		b.WriteString(`,"congestion":[` + strings.Join(rects, ",") + `]`)
	}
	b.WriteString("}")
	return []byte(b.String())
}

// instanceDiff names the first field in which got differs from want, or
// returns "": the multipliers bit for bit, the capacities, the shape and
// layer stack, the pins, the window, the penalty, η and the seed.
func instanceDiff(got, want *Instance) string {
	switch g, w := got.G, want.G; {
	case g.NX != w.NX || g.NY != w.NY || g.LenUM != w.LenUM:
		return fmt.Sprintf("grid %d×%d (%g µm), want %d×%d (%g µm)", g.NX, g.NY, g.LenUM, w.NX, w.NY, w.LenUM)
	case !reflect.DeepEqual(g.Layers, w.Layers):
		return fmt.Sprintf("layer stack of %d layers, want %d", len(g.Layers), len(w.Layers))
	case !reflect.DeepEqual(g.Cap, w.Cap):
		return "capacities differ"
	case len(got.C.Mult) != len(want.C.Mult) || got.C.MinMult != want.C.MinMult:
		return fmt.Sprintf("%d multipliers ≥ %g, want %d ≥ %g", len(got.C.Mult), got.C.MinMult, len(want.C.Mult), want.C.MinMult)
	}
	for i, m := range want.C.Mult {
		if math.Float32bits(got.C.Mult[i]) != math.Float32bits(m) {
			return fmt.Sprintf("segment %d: multiplier %v, want %v", i, got.C.Mult[i], m)
		}
	}
	switch {
	case got.Root != want.Root || !reflect.DeepEqual(got.Sinks, want.Sinks):
		return fmt.Sprintf("pins %v %v, want %v %v", got.Root, got.Sinks, want.Root, want.Sinks)
	case got.Win != want.Win:
		return fmt.Sprintf("window %+v, want %+v", got.Win, want.Win)
	case math.Float64bits(got.DBif) != math.Float64bits(want.DBif) || got.Eta != want.Eta || got.Seed != want.Seed:
		return fmt.Sprintf("dbif/eta/seed %v/%v/%v, want %v/%v/%v", got.DBif, got.Eta, got.Seed, want.DBif, want.Eta, want.Seed)
	}
	return ""
}

// Solver.Build is InstanceJSON.Build on a cached grid: after every
// build of a seeded sequence — shapes alternating, one of them sharing
// nx×ny with another but not its layer count, congested documents
// followed by clean ones — the instance equals a fresh ParseInstance of
// the same bytes and solves to the same marshaled tree. The solver
// reuses its graph exactly when the shape repeats and otherwise
// replaces it.
func TestSolverBuildMatchesBuild(t *testing.T) {
	type shape struct {
		nx, ny int32
		layers int
	}
	big, small, thin := shape{64, 64, 8}, shape{32, 48, 5}, shape{64, 64, 6}
	steps := []struct {
		shape
		congested bool
	}{
		{big, true}, {big, true}, {big, false}, {small, true}, {small, false}, {small, true},
		{big, true}, {thin, true}, {thin, false}, {big, true}, {big, false}, {big, true},
	}
	rng := rand.New(rand.NewPCG(29, 1))
	s := NewSolver()
	var prev shape
	var prevG *Graph
	for i, st := range steps {
		doc := solverBuildDoc(rng, st.nx, st.ny, st.layers, 2+rng.IntN(7), st.congested)
		want, err := ParseInstance(doc)
		if err != nil {
			t.Fatal(err)
		}
		f, err := decodeInstance(doc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Build(&f)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if d := instanceDiff(got, want); d != "" {
			t.Fatalf("step %d (%v, congested %v): %s", i, st.shape, st.congested, d)
		}
		if got.G != s.grid.g || got.C != s.grid.c {
			t.Fatalf("step %d: instance not built on the solver's grid", i)
		}
		if i > 0 && (got.G == prevG) != (st.shape == prev) {
			t.Fatalf("step %d: %v after %v: graph reused = %v", i, st.shape, prev, got.G == prevG)
		}
		prev, prevG = st.shape, got.G

		wt, err := SolveCD(want, DefaultCDOptions())
		if err != nil {
			t.Fatal(err)
		}
		gt, err := s.SolveCD(got, DefaultCDOptions())
		if err != nil {
			t.Fatal(err)
		}
		wb, err := MarshalTree(want, wt)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := MarshalTree(got, gt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("step %d: tree on the cached grid differs from the library's:\n%s\n%s", i, gb, wb)
		}
	}
}

// On a repeated 64×64×8 shape Solver.Build allocates nothing grid-sized:
// the instance, its sinks and the window's terminal list — under 8 KB
// for 40 sinks, against the 476 KB of a fresh graph and multiplier
// array.
func TestSolverBuildAllocationBound(t *testing.T) {
	doc := solverBuildDoc(rand.New(rand.NewPCG(29, 2)), 64, 64, 8, 40, true)
	f, err := decodeInstance(doc)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver()
	if _, err := s.Build(&f); err != nil {
		t.Fatal(err)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := s.Build(&f); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	b := (after.TotalAlloc - before.TotalAlloc) / runs
	if b >= 8<<10 {
		t.Fatalf("Solver.Build on a repeated shape allocated %d B/op, want under 8 KB", b)
	}
	t.Logf("Solver.Build on a repeated 64×64×8 shape, 40 sinks: %d B/op", b)
}

// A routing arc names its layer in an int8, so MaxLayers = 128 layers
// solve and evaluate, and 129 are refused before any grid is built: a
// 4×4×129 document with a sink on layer 128 used to solve and then panic
// in Evaluate with "index out of range [-128]". Checkpoints claiming 129
// layers are refused too, and grid.New panics on such a stack.
func TestLayerCap(t *testing.T) {
	doc := func(layers int) []byte {
		return []byte(fmt.Sprintf(`{"nx":4,"ny":4,"layers":%d,"root":[0,0,0],"sinks":[{"x":3,"y":3,"l":%d,"w":0.01}]}`, layers, layers-1))
	}
	in, err := ParseInstance(doc(MaxLayers))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := SolveCD(in, DefaultCDOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MarshalTree(in, tr); err != nil {
		t.Fatalf("%d layers: %v", MaxLayers, err)
	}
	want := fmt.Sprintf("costdist: instance has %d layers, at most %d", MaxLayers+1, MaxLayers)
	if _, err := ParseInstance(doc(MaxLayers + 1)); err == nil || err.Error() != want {
		t.Fatalf("%d layers: error %v, want %q", MaxLayers+1, err, want)
	}
	f, err := decodeInstance(doc(MaxLayers + 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSolver().Build(&f); err == nil || err.Error() != want {
		t.Fatalf("Solver.Build of %d layers: error %v, want %q", MaxLayers+1, err, want)
	}
	if _, err := checkpointGraph(4, 4, MaxLayers+1, "", 0, 0); err == nil {
		t.Fatalf("a %d-layer checkpoint grid was accepted", MaxLayers+1)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("NewGrid built %d layers", MaxLayers+1)
		}
	}()
	tech := DefaultTech(MaxLayers + 1)
	NewGrid(4, 4, BuildLayers(tech), tech.GCellUM)
}

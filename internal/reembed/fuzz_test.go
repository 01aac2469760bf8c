package reembed

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"

	"costdist/internal/grid"
	"costdist/internal/nets"
)

// The fuzzed document, every number little-endian and reduced modulo
// its range, missing bytes reading as zero:
//
//	root vertex u16 · dbif u8 (/32) · bound u8 (0: none, else its square)
//	sink count u8 (1 + mod 6), then per sink: vertex u16 · weight u8 (/32)
//	repriced segment count u8 (mod 32), then per segment: id u16 · multiplier u8 (1 + /8)
//	steps until the input ends (at most 64): from vertex u16 · to vertex u16
//
// Steps carry no arc: extraction reads only their two vertices, and the
// re-embedding routes every topology edge itself.
type fuzzDoc struct{ b []byte }

func (d *fuzzDoc) u8() int {
	if len(d.b) == 0 {
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return int(v)
}

func (d *fuzzDoc) u16() int { return d.u8() | d.u8()<<8 }

func decodeFuzzDoc(g *grid.Graph, data []byte) (*nets.Instance, *nets.RTree, float64) {
	d, nv := &fuzzDoc{data}, int(g.NumV())
	in := testInstance(g, grid.V(d.u16()%nv), nil)
	in.DBif = float64(d.u8()) / 32
	bound := math.Inf(1)
	if b := d.u8(); b > 0 {
		bound = float64(b * b)
	}
	in.Sinks = make([]nets.Sink, 1+d.u8()%6)
	for i := range in.Sinks {
		in.Sinks[i] = nets.Sink{V: grid.V(d.u16() % nv), W: float64(d.u8()) / 32}
	}
	for k := d.u8() % 32; k > 0; k-- {
		seg := d.u16() % len(in.C.Mult)
		in.C.Mult[seg] = 1 + float32(d.u8())/8
	}
	tr := &nets.RTree{}
	for len(d.b) > 0 && len(tr.Steps) < 64 {
		tr.Steps = append(tr.Steps, nets.Step{From: grid.V(d.u16() % nv), Arc: grid.Arc{To: grid.V(d.u16() % nv)}})
	}
	return in, tr, bound
}

// encodeFuzzDoc writes a fixture in the fuzzed format, multipliers
// aside (the fuzzer finds those).
func encodeFuzzDoc(in *nets.Instance, tr *nets.RTree) []byte {
	le := binary.LittleEndian
	b := le.AppendUint16(nil, uint16(in.Root))
	b = append(b, byte(in.DBif*32), 0, byte(len(in.Sinks)-1))
	for _, s := range in.Sinks {
		b = append(le.AppendUint16(b, uint16(s.V)), byte(s.W*32))
	}
	b = append(b, 0)
	for _, st := range tr.Steps {
		b = le.AppendUint16(le.AppendUint16(b, uint16(st.From)), uint16(st.Arc.To))
	}
	return b
}

// FuzzExtractTopologyReembed drives arbitrary small step lists over a
// 12×12×4 grid with fuzzed prices through ExtractTopology and Reembed:
// whatever the steps are — a tree, a forest, cycles, repeated edges,
// sinks off the tree — the pair must come back with an error or with a
// tree that nets.Evaluate accepts, which includes spanning every sink.
// Repair only ever passes on what Evaluate accepted; this is the path
// without that filter.
func FuzzExtractTopologyReembed(f *testing.F) {
	g := newGraph(12, 12, 4)
	// The instance shapes of TestRepairUnderUnchangedPrices and
	// TestRepairDeterministicAcrossScratchReuse, on this grid.
	rng := rand.New(rand.NewPCG(3, 9))
	for it := 0; it < 6; it++ {
		sinks := make([]nets.Sink, 1+rng.IntN(6))
		for i := range sinks {
			sinks[i] = nets.Sink{V: g.At(rng.Int32N(12), rng.Int32N(12), rng.Int32N(2)), W: float64(rng.IntN(96)) / 32}
		}
		in := testInstance(g, g.At(rng.Int32N(12), rng.Int32N(12), 0), sinks)
		in.DBif = float64(it % 4)
		f.Add(encodeFuzzDoc(in, cachedTree(f, in)))
	}
	f.Add([]byte{})
	// One sink two steps from the root, the second step listed twice: as
	// many steps as a three-vertex cycle would have.
	f.Add([]byte{0, 0, 0, 0, 0, 2, 0, 32, 0, 0, 0, 1, 0, 1, 0, 2, 0, 1, 0, 2, 0})
	// A chain whose every edge is doubled repeats its subtree 2^depth
	// times unless extraction refuses it.
	doubled := []byte{0, 0, 0, 0, 0, 30, 0, 32, 0}
	for v := byte(0); v < 30; v++ {
		doubled = append(doubled, v, 0, v+1, 0, v, 0, v+1, 0)
	}
	f.Add(doubled)

	scr := NewScratch()
	f.Fuzz(func(t *testing.T, data []byte) {
		in, cached, bound := decodeFuzzDoc(g, data)
		win := Window(in, cached)
		topo, err := ExtractTopology(in, cached, win, scr)
		if err != nil {
			return
		}
		tr, _, err := Reembed(in, topo, win, bound, scr)
		if err != nil {
			return
		}
		if _, err := nets.Evaluate(in, tr); err != nil {
			t.Fatalf("re-embedding returned an invalid tree: %v", err)
		}
	})
}

package nets

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"costdist/internal/geom"
	"costdist/internal/pins"
)

// star builds a root with k sink children directly attached.
func star(k int) (*PlaneTree, []float64) {
	t := &PlaneTree{Nodes: []PlaneNode{{Pos: geom.Pt{X: 5, Y: 5}, Parent: -1, SinkIdx: -1}}}
	ws := make([]float64, k)
	for i := 0; i < k; i++ {
		t.Nodes = append(t.Nodes, PlaneNode{Pos: geom.Pt{X: int32(i), Y: int32(2 * i)}, Parent: 0, SinkIdx: int32(i)})
		ws[i] = float64(i + 1)
	}
	return t, ws
}

func TestValidate(t *testing.T) {
	tr, _ := star(3)
	if err := tr.Validate(3); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	if err := tr.Validate(4); err == nil {
		t.Fatal("missing sink not caught")
	}
	bad := &PlaneTree{Nodes: []PlaneNode{
		{Parent: -1, SinkIdx: -1},
		{Parent: 2, SinkIdx: 0},
		{Parent: 1, SinkIdx: -1},
	}}
	if err := bad.Validate(1); err == nil {
		t.Fatal("cycle not caught")
	}
	dup := &PlaneTree{Nodes: []PlaneNode{
		{Parent: -1, SinkIdx: -1},
		{Parent: 0, SinkIdx: 0},
		{Parent: 0, SinkIdx: 0},
	}}
	if err := dup.Validate(1); err == nil {
		t.Fatal("duplicate sink not caught")
	}
}

func TestLength(t *testing.T) {
	tr := &PlaneTree{Nodes: []PlaneNode{
		{Pos: geom.Pt{X: 0, Y: 0}, Parent: -1, SinkIdx: -1},
		{Pos: geom.Pt{X: 3, Y: 0}, Parent: 0, SinkIdx: -1},
		{Pos: geom.Pt{X: 3, Y: 4}, Parent: 1, SinkIdx: 0},
		{Pos: geom.Pt{X: 5, Y: 0}, Parent: 1, SinkIdx: 1},
	}}
	if got := tr.Length(); got != 3+4+2 {
		t.Fatalf("Length = %d", got)
	}
}

func checkCanonical(t *testing.T, c *PlaneTree, nSinks int) {
	t.Helper()
	if err := c.Validate(nSinks); err != nil {
		t.Fatalf("canonical tree invalid: %v", err)
	}
	ch := c.Children()
	if len(ch[0]) > 1 {
		t.Fatalf("root has %d children", len(ch[0]))
	}
	for i := 1; i < len(c.Nodes); i++ {
		n := c.Nodes[i]
		if n.SinkIdx >= 0 && len(ch[i]) != 0 {
			t.Fatalf("sink node %d is internal", i)
		}
		if n.SinkIdx < 0 && len(ch[i]) > 2 {
			t.Fatalf("Steiner node %d has %d children", i, len(ch[i]))
		}
		if n.SinkIdx < 0 && len(ch[i]) == 0 {
			t.Fatalf("dangling Steiner node %d", i)
		}
	}
}

func TestCanonicalizeStar(t *testing.T) {
	for k := 1; k <= 7; k++ {
		tr, ws := star(k)
		c := tr.Canonicalize(ws, 2.0, 0.25)
		checkCanonical(t, c, k)
	}
}

func TestCanonicalizeSinkWithChildren(t *testing.T) {
	// root -> sink0 -> sink1: sink0 must become Steiner + leaf.
	tr := &PlaneTree{Nodes: []PlaneNode{
		{Pos: geom.Pt{X: 0, Y: 0}, Parent: -1, SinkIdx: -1},
		{Pos: geom.Pt{X: 2, Y: 0}, Parent: 0, SinkIdx: 0},
		{Pos: geom.Pt{X: 4, Y: 0}, Parent: 1, SinkIdx: 1},
	}}
	c := tr.Canonicalize([]float64{1, 1}, 2.0, 0.25)
	checkCanonical(t, c, 2)
	// The Steiner split node must sit at sink0's position so path
	// lengths are unchanged.
	var steinerPos []geom.Pt
	for i := 1; i < len(c.Nodes); i++ {
		if c.Nodes[i].SinkIdx < 0 {
			steinerPos = append(steinerPos, c.Nodes[i].Pos)
		}
	}
	if len(steinerPos) != 1 || steinerPos[0] != (geom.Pt{X: 2, Y: 0}) {
		t.Fatalf("steiner positions %v", steinerPos)
	}
}

func TestCanonicalizeDeepMixed(t *testing.T) {
	// Root with 3 children, one of which is a sink with 2 children.
	tr := &PlaneTree{Nodes: []PlaneNode{
		{Pos: geom.Pt{X: 0, Y: 0}, Parent: -1, SinkIdx: -1},
		{Pos: geom.Pt{X: 1, Y: 1}, Parent: 0, SinkIdx: 0},
		{Pos: geom.Pt{X: 2, Y: 2}, Parent: 0, SinkIdx: 1},
		{Pos: geom.Pt{X: 3, Y: 3}, Parent: 0, SinkIdx: -1}, // Steiner
		{Pos: geom.Pt{X: 4, Y: 4}, Parent: 3, SinkIdx: 2},
		{Pos: geom.Pt{X: 5, Y: 5}, Parent: 3, SinkIdx: 3},
		{Pos: geom.Pt{X: 6, Y: 6}, Parent: 1, SinkIdx: 4}, // child of sink 0
	}}
	c := tr.Canonicalize([]float64{1, 2, 3, 4, 5}, 1.5, 0.2)
	checkCanonical(t, c, 5)
}

func TestCanonicalizeSplicesPassThrough(t *testing.T) {
	tr := &PlaneTree{Nodes: []PlaneNode{
		{Pos: geom.Pt{X: 0, Y: 0}, Parent: -1, SinkIdx: -1},
		{Pos: geom.Pt{X: 1, Y: 0}, Parent: 0, SinkIdx: -1}, // pass-through
		{Pos: geom.Pt{X: 2, Y: 0}, Parent: 1, SinkIdx: -1}, // pass-through
		{Pos: geom.Pt{X: 3, Y: 0}, Parent: 2, SinkIdx: 0},
	}}
	c := tr.Canonicalize([]float64{1}, 2, 0.25)
	checkCanonical(t, c, 1)
	if len(c.Nodes) != 2 {
		t.Fatalf("pass-through nodes survived: %d nodes", len(c.Nodes))
	}
}

// canonicalizeDigestFile holds the sha256 of canonDigestCorpus's canonical
// trees. It pins Canonicalize's exact output: node order, Steiner positions
// and the merge shape bestMergeTree picks, which the shape checks above do
// not. A rewrite must pass it unedited; a change of output regenerates it
// with
//
//	PINS_UPDATE=1 go test ./...
const canonicalizeDigestFile = "../../testdata/canonicalize_digest.txt"

// canonDigestCorpus feeds every tree of a seeded corpus through
// Canonicalize and hashes (x, y, parent, sink index) of each output node.
// The corpus is about 5 000 random topologies of 1–30 nodes (sinks with
// children, childless Steiner nodes, root fan-outs past five, now and then
// a root carrying a sink index, which Canonicalize ignores) and stars of
// 6–9 sinks under the root and under a Steiner node, which take
// bestMergeTree's greedy branch, each under several dbif and eta values.
func canonDigestCorpus() string {
	rng := rand.New(rand.NewSource(41))
	h := sha256.New()
	var buf [4]byte
	put := func(v int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	params := [][2]float64{{0, 0.5}, {2, 0.25}, {1.5, 0.2}, {3, 0.8}, {1, 0.5}}
	emit := func(tr *PlaneTree, sinkW []float64, p [2]float64) {
		c := tr.Canonicalize(sinkW, p[0], p[1])
		put(int32(len(c.Nodes)))
		for _, n := range c.Nodes {
			put(n.Pos.X)
			put(n.Pos.Y)
			put(n.Parent)
			put(n.SinkIdx)
		}
	}
	pt := func() geom.Pt { return geom.Pt{X: int32(rng.Intn(40)), Y: int32(rng.Intn(40))} }
	for it := 0; it < 5000; it++ {
		n := 1 + rng.Intn(30)
		tr := &PlaneTree{Nodes: []PlaneNode{{Pos: pt(), Parent: -1, SinkIdx: -1}}}
		var sinkNodes []int
		for i := 1; i < n; i++ {
			parent := int32(rng.Intn(i))
			if rng.Intn(3) == 0 {
				parent = 0 // widen the root's fan-out
			}
			tr.Nodes = append(tr.Nodes, PlaneNode{Pos: pt(), Parent: parent, SinkIdx: -1})
			if rng.Intn(5) < 3 {
				sinkNodes = append(sinkNodes, i)
			}
		}
		// Sink indices in shuffled node order; weights from a small set
		// so bestMergeTree meets ties.
		rng.Shuffle(len(sinkNodes), func(a, b int) { sinkNodes[a], sinkNodes[b] = sinkNodes[b], sinkNodes[a] })
		sinkW := make([]float64, len(sinkNodes), len(sinkNodes)+1)
		for s, i := range sinkNodes {
			tr.Nodes[i].SinkIdx = int32(s)
			sinkW[s] = float64(1 + rng.Intn(6))
		}
		if rng.Intn(8) == 0 {
			tr.Nodes[0].SinkIdx = int32(len(sinkW))
			sinkW = append(sinkW, 7)
		}
		emit(tr, sinkW, params[it%len(params)])
	}
	for k := 6; k <= 9; k++ {
		for _, p := range params {
			tr, ws := star(k)
			emit(tr, ws, p)
			// The same fan-out under a Steiner node, with a sink above it.
			sub := &PlaneTree{Nodes: []PlaneNode{
				{Pos: geom.Pt{X: 0, Y: 0}, Parent: -1, SinkIdx: -1},
				{Pos: geom.Pt{X: 3, Y: 3}, Parent: 0, SinkIdx: int32(k)},
			}}
			for i := 0; i < k; i++ {
				sub.Nodes = append(sub.Nodes, PlaneNode{Pos: geom.Pt{X: int32(10 + i), Y: int32(i % 3)}, Parent: 1, SinkIdx: int32(i)})
			}
			emit(sub, append(ws[:k:k], 2), p)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestCanonicalizeDigest(t *testing.T) {
	got := canonDigestCorpus()
	if want := pins.File(t, canonicalizeDigestFile, []byte(got+"\n")); string(want) != got+"\n" {
		t.Fatalf("Canonicalize digest = %s, want %s", got, want)
	}
}

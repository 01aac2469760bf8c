package nets

import (
	"testing"

	"costdist/internal/geom"
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

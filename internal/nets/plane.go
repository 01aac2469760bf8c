package nets

import (
	"errors"
	"fmt"

	"costdist/internal/geom"
)

// PlaneNode is a node of a Steiner topology in the gcell plane.
type PlaneNode struct {
	Pos geom.Pt
	// Parent is the index of the parent node, -1 for the root (node 0).
	Parent int32
	// SinkIdx is the index into Instance.Sinks for sink nodes, -1 for
	// Steiner nodes. Node 0 is always the root terminal (SinkIdx -1).
	SinkIdx int32
}

// PlaneTree is a rooted Steiner topology in the plane. Node 0 is the
// root terminal. The baseline algorithms (L1, SL, PD) produce these;
// package embed maps them into the routing graph.
type PlaneTree struct {
	Nodes []PlaneNode
}

// Children returns the child index lists of every node.
func (t *PlaneTree) Children() [][]int32 {
	ch := make([][]int32, len(t.Nodes))
	for i := 1; i < len(t.Nodes); i++ {
		p := t.Nodes[i].Parent
		ch[p] = append(ch[p], int32(i))
	}
	return ch
}

// Validate checks structural invariants: node 0 is the root with parent
// -1, parents precede nothing in particular but form a tree reaching the
// root, and every sink index in [0, nSinks) appears exactly once.
func (t *PlaneTree) Validate(nSinks int) error {
	if len(t.Nodes) == 0 {
		return errors.New("nets: empty plane tree")
	}
	if t.Nodes[0].Parent != -1 {
		return errors.New("nets: node 0 must be the root")
	}
	seen := make([]bool, nSinks)
	for i, n := range t.Nodes {
		if i == 0 {
			continue
		}
		if n.Parent < 0 || int(n.Parent) >= len(t.Nodes) || n.Parent == int32(i) {
			return fmt.Errorf("nets: node %d has bad parent %d", i, n.Parent)
		}
		if n.SinkIdx >= 0 {
			if int(n.SinkIdx) >= nSinks {
				return fmt.Errorf("nets: node %d has sink index %d out of range", i, n.SinkIdx)
			}
			if seen[n.SinkIdx] {
				return fmt.Errorf("nets: sink %d appears twice", n.SinkIdx)
			}
			seen[n.SinkIdx] = true
		}
	}
	for s, ok := range seen {
		if !ok {
			return fmt.Errorf("nets: sink %d missing from tree", s)
		}
	}
	// Acyclicity / reachability: walk parents with a step budget.
	for i := range t.Nodes {
		steps := 0
		for j := int32(i); j != 0; j = t.Nodes[j].Parent {
			if steps++; steps > len(t.Nodes) {
				return fmt.Errorf("nets: parent cycle at node %d", i)
			}
		}
	}
	return nil
}

// Length returns the total L1 length of the topology.
func (t *PlaneTree) Length() int64 {
	var total int64
	for i := 1; i < len(t.Nodes); i++ {
		total += geom.L1(t.Nodes[i].Pos, t.Nodes[t.Nodes[i].Parent].Pos)
	}
	return total
}

// Canonicalize transforms the topology into a bifurcation-compatible
// tree (paper §I): the root and all sinks are leaves and internal
// (Steiner) nodes have exactly two children. Sinks with children are
// replaced by a Steiner node plus a sink leaf at the same position;
// nodes with k > 2 children are binarized with bestMergeTree using the
// sink delay weights, so the implicit λ assignment matches the
// evaluator; pass-through Steiner nodes with one child are spliced out
// (downstream embedding re-routes between nodes anyway, so bend nodes
// carry no information). Terminal positions are preserved.
func (t *PlaneTree) Canonicalize(sinkW []float64, dbif, eta float64) *PlaneTree {
	ch := t.Children()
	// Subtree sink weight per node.
	subW := make([]float64, len(t.Nodes))
	var weigh func(i int32) float64
	weigh = func(i int32) float64 {
		w := 0.0
		if s := t.Nodes[i].SinkIdx; s >= 0 {
			w = sinkW[s]
		}
		for _, c := range ch[i] {
			w += weigh(c)
		}
		subW[i] = w
		return w
	}
	weigh(0)

	out := &PlaneTree{}
	out.Nodes = append(out.Nodes, PlaneNode{Pos: t.Nodes[0].Pos, Parent: -1, SinkIdx: -1})

	// build attaches old node i's items under parent: its own sink leaf
	// (item 0 when it has one; the root's SinkIdx is ignored) and its
	// children's subtrees. A single item hangs straight under parent, so
	// pass-through nodes splice out; several are binarized at i's
	// position, which keeps the root a leaf.
	var build func(i, parent int32)
	build = func(i, parent int32) {
		n := t.Nodes[i]
		leaf := 0
		if n.SinkIdx >= 0 && i != 0 {
			leaf = 1
		}
		attach := func(k int, parent int32) {
			if k < leaf {
				out.Nodes = append(out.Nodes, PlaneNode{Pos: n.Pos, Parent: parent, SinkIdx: n.SinkIdx})
			} else {
				build(ch[i][k-leaf], parent)
			}
		}
		switch k := leaf + len(ch[i]); k {
		case 0:
		case 1:
			attach(0, parent)
		default:
			ws := make([]float64, 0, k)
			if leaf == 1 {
				ws = append(ws, sinkW[n.SinkIdx])
			}
			for _, c := range ch[i] {
				ws = append(ws, subW[c])
			}
			var place func(m *mergeNode, parent int32)
			place = func(m *mergeNode, parent int32) {
				if m.leaf >= 0 {
					attach(m.leaf, parent)
					return
				}
				out.Nodes = append(out.Nodes, PlaneNode{Pos: n.Pos, Parent: parent, SinkIdx: -1})
				me := int32(len(out.Nodes) - 1)
				place(m.left, me)
				place(m.right, me)
			}
			place(bestMergeTree(dbif, eta, ws), parent)
		}
	}
	build(0, 0)
	return out
}

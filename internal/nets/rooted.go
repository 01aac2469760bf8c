package nets

import (
	"slices"

	"costdist/internal/grid"
)

// Rooted is a step list rooted at a net's root: the one place adjacency
// is built from steps. Build numbers the vertices reachable from the
// root in BFS order — node 0 is the root, a parent precedes its
// children, and the children of one node are consecutive — so a
// consumer walks the tree top-down by counting up, bottom-up by counting
// down, and a node's children as the range KidOff[i]:KidOff[i+1].
//
// Two orders are part of the contract, because float sums and emitted
// step lists follow them. A vertex's half-edges are scanned in step
// order: of two parallel steps the BFS enters a vertex through the
// earlier, and a node's children are numbered in the order the step
// list names them. Hosted sinks keep sink order.
//
// Vertex ids come from sorting the distinct endpoints, not from a window
// index, so any step list over the graph can be rooted without knowing
// a rectangle that holds it. All slices are reused by the next Build.
type Rooted struct {
	// Parent[i] is node i's parent node and Step[i] the index of the step
	// the BFS entered it through; both are -1 for the root.
	Parent, Step []int32
	// KidOff has one entry per node plus one: the children of node i are
	// the nodes KidOff[i] ≤ c < KidOff[i+1].
	KidOff []int32
	// Host[s] is the node whose vertex hosts sink s, -1 when the steps do
	// not connect that vertex to the root. Sinks lists the hosted sinks
	// node by node, SinkOff delimiting each node's (see SinksAt).
	Host, SinkOff, Sinks []int32

	steps int
	// verts are the sorted distinct vertices — the root and every step
	// endpoint; a vertex's id is its position. ends holds the two ids of
	// every step, so half-edge h = 2·step + (0 forward, 1 reverse) leaves
	// ends[h] for ends[h^1]; half lists the half-edges by the vertex they
	// leave, delimited by off. node maps an id to its BFS number (-1
	// unreached), order back.
	verts                        []grid.V
	ends, half, off, node, order []int32
}

// room returns s emptied, with capacity for n elements; it reallocates
// only to grow, so a Build on fresh slices allocates each of them once.
func room[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// sized returns s with length n and unspecified contents.
func sized[T any](s []T, n int) []T { return room(s, n)[:n] }

func (r *Rooted) id(v grid.V) int32 {
	i, _ := slices.BinarySearch(r.verts, v)
	return int32(i)
}

// Build roots the steps at root and buckets the sinks by hosting node.
// It accepts any multiset of steps — repeated edges, self-loops, several
// components; IsTree tells whether they were a tree.
func (r *Rooted) Build(root grid.V, steps []Step, sinks []Sink) {
	vs := append(room(r.verts, 2*len(steps)+1), root)
	for _, st := range steps {
		vs = append(vs, st.From, st.Arc.To)
	}
	slices.Sort(vs)
	vs = slices.Compact(vs)
	r.verts, r.steps = vs, len(steps)
	nv := len(vs)

	// off[v+2] first counts v's half-edges; off[v+1] then runs as v's
	// fill cursor and ends on the start of v+1: the offsets, one slot down.
	off := sized(r.off, nv+2)
	clear(off)
	ends := room(r.ends, 2*len(steps))
	for _, st := range steps {
		a, b := r.id(st.From), r.id(st.Arc.To)
		ends = append(ends, a, b)
		off[a+2]++
		off[b+2]++
	}
	for v := 0; v < nv; v++ {
		off[v+2] += off[v+1]
	}
	half := sized(r.half, len(ends))
	for h, v := range ends {
		half[off[v+1]] = int32(h)
		off[v+1]++
	}
	r.ends, r.half, r.off = ends, half, off

	node := sized(r.node, nv)
	for v := range node {
		node[v] = -1
	}
	rootID := r.id(root)
	node[rootID] = 0
	order := append(room(r.order, nv), rootID)
	r.Parent, r.Step, r.KidOff = append(room(r.Parent, nv), -1), append(room(r.Step, nv), -1), room(r.KidOff, nv+1)
	for i := 0; i < len(order); i++ {
		r.KidOff = append(r.KidOff, int32(len(order)))
		v := order[i]
		for _, h := range half[off[v]:off[v+1]] {
			if c := ends[h^1]; node[c] < 0 {
				node[c] = int32(len(order))
				order = append(order, c)
				r.Parent, r.Step = append(r.Parent, int32(i)), append(r.Step, h>>1)
			}
		}
	}
	r.KidOff = append(r.KidOff, int32(len(order)))
	r.node, r.order = node, order

	// The same count-then-cursor layout for the hosted sinks.
	n := len(order)
	sinkOff := sized(r.SinkOff, n+2)
	clear(sinkOff)
	r.Host = room(r.Host, len(sinks))
	for _, s := range sinks {
		h := int32(-1)
		if id, ok := slices.BinarySearch(vs, s.V); ok {
			h = node[id]
		}
		r.Host = append(r.Host, h)
		if h >= 0 {
			sinkOff[h+2]++
		}
	}
	for i := 0; i < n; i++ {
		sinkOff[i+2] += sinkOff[i+1]
	}
	r.Sinks = sized(r.Sinks, int(sinkOff[n+1]))
	for s, h := range r.Host {
		if h >= 0 {
			r.Sinks[sinkOff[h+1]] = int32(s)
			sinkOff[h+1]++
		}
	}
	r.SinkOff = sinkOff
}

// N returns the number of nodes: the vertices the steps connect to the
// root, the root included.
func (r *Rooted) N() int { return len(r.order) }

// IsTree reports whether the steps form a tree containing the root:
// every endpoint reachable from it over one step fewer than vertices,
// which rules out repeated edges, self-loops and cycles. The empty step
// list is the tree of the root alone.
func (r *Rooted) IsTree() bool {
	return len(r.order) == len(r.verts) && r.steps == len(r.verts)-1
}

// Vertex returns the graph vertex of node i.
func (r *Rooted) Vertex(i int32) grid.V { return r.verts[r.order[i]] }

// SinksAt returns the sinks hosted on node i, in sink order.
func (r *Rooted) SinksAt(i int32) []int32 { return r.Sinks[r.SinkOff[i]:r.SinkOff[i+1]] }

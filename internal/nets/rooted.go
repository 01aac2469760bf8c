package nets

import (
	"math/bits"

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
// Vertex ids are handed out in order of first appearance — the root,
// then each step's From and To — through an open-addressing table, so
// any step list over the graph can be rooted without knowing a
// rectangle that holds it, and without a sort. No output depends on the
// ids: the BFS follows step order. All slices are reused by the next
// Build.
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
	// verts are the distinct vertices — the root and every step endpoint —
	// in order of first appearance; a vertex's id is its position. table
	// maps a vertex to its id (see slot); shift and shift2 place a
	// vertex's hash in it. ends holds the two ids of every step, so
	// half-edge h = 2·step + (0 forward, 1 reverse) leaves ends[h] for
	// ends[h^1]; half lists the half-edges by the vertex they leave,
	// delimited by off. node maps an id to its BFS number (-1 unreached),
	// order back.
	verts                        []grid.V
	table                        []vertexSlot
	shift, shift2                uint
	ends, half, off, node, order []int32
	// probes counts the table slots the last Build visited: its
	// deterministic work, which tests hold linear in the step count.
	probes int
}

// vertexSlot is one entry of Rooted's vertex table: vertex v has id
// id-1, and id 0 marks an empty slot.
type vertexSlot struct {
	v  grid.V
	id int32
}

// hashMul is an odd 64-bit multiplier (2^64 over the golden ratio): on
// 32-bit vertex ids the product is one-to-one, its top bits well mixed.
const hashMul = 0x9E3779B97F4A7C15

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

// slot returns v's entry in the vertex table, or the empty slot where v
// goes. The table is double hashed: a vertex starts at the top bits of
// its hash and steps by the odd number the bits below them make, so
// vertices that share a starting slot leave it on different strides
// instead of queueing behind each other (TestRootedMatchesSortedIDs
// holds a list built that way to a linear probe count). At most half
// the table is ever filled, so the walk ends.
func (r *Rooted) slot(v grid.V) *vertexSlot {
	p := uint64(uint32(v)) * hashMul
	mask := uint64(len(r.table) - 1)
	i, stride := p>>r.shift, p>>r.shift2|1
	for n := 1; ; n++ {
		s := &r.table[i]
		if s.id == 0 || s.v == v {
			r.probes += n
			return s
		}
		i = (i + stride) & mask
	}
}

// id returns v's vertex id, handing out the next one on v's first
// appearance.
func (r *Rooted) id(v grid.V) int32 {
	s := r.slot(v)
	if s.id == 0 {
		r.verts = append(r.verts, v)
		s.v, s.id = v, int32(len(r.verts))
	}
	return s.id - 1
}

// Build roots the steps at root and buckets the sinks by hosting node.
// It accepts any multiset of steps — repeated edges, self-loops, several
// components; IsTree tells whether they were a tree.
func (r *Rooted) Build(root grid.V, steps []Step, sinks []Sink) {
	// A table of at least twice the most vertices the steps can name.
	most := 2*len(steps) + 1
	k := uint(bits.Len(uint(2*most - 1)))
	r.table = sized(r.table, 1<<k)
	clear(r.table)
	r.shift, r.shift2, r.probes = 64-k, 64-2*k, 0
	r.verts, r.steps = room(r.verts, most), len(steps)
	r.id(root) // the first vertex to appear: id 0

	// off[v+2] first counts v's half-edges; off[v+1] then runs as v's
	// fill cursor and ends on the start of v+1: the offsets, one slot down.
	ends := room(r.ends, 2*len(steps))
	for _, st := range steps {
		ends = append(ends, r.id(st.From), r.id(st.Arc.To))
	}
	nv := len(r.verts)
	off := sized(r.off, nv+2)
	clear(off)
	for _, v := range ends {
		off[v+2]++
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
	node[0] = 0
	order := append(room(r.order, nv), 0)
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
		if sl := r.slot(s.V); sl.id != 0 {
			h = node[sl.id-1]
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

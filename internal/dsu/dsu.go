// Package dsu implements a disjoint-set union (union-find) structure with
// path halving and union by size. The cost-distance algorithm uses it to
// redirect component ownership of graph vertices when components merge,
// so that stale ownership stamps resolve to the current active component.
package dsu

// DSU is a disjoint-set union over elements 0..n-1.
type DSU struct {
	parent []int32
	size   []int32
}

// New returns a DSU with n singleton sets.
func New(n int) *DSU {
	d := &DSU{parent: make([]int32, n), size: make([]int32, n)}
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.size[i] = 1
	}
	return d
}

// Reset reinitializes the structure to n singleton sets, retaining the
// backing storage of previous, larger universes. It lets one DSU be
// recycled across solver calls (core.Scratch).
func (d *DSU) Reset(n int) {
	// parent and size grow through independent appends, so their
	// capacities may differ; check each.
	if cap(d.parent) < n {
		d.parent = make([]int32, n)
	} else {
		d.parent = d.parent[:n]
	}
	if cap(d.size) < n {
		d.size = make([]int32, n)
	} else {
		d.size = d.size[:n]
	}
	for i := 0; i < n; i++ {
		d.parent[i] = int32(i)
		d.size[i] = 1
	}
}

// Len returns the number of elements (not sets).
func (d *DSU) Len() int { return len(d.parent) }

// Grow adds k new singleton elements and returns the index of the first.
func (d *DSU) Grow(k int) int32 {
	first := int32(len(d.parent))
	for i := 0; i < k; i++ {
		d.parent = append(d.parent, first+int32(i))
		d.size = append(d.size, 1)
	}
	return first
}

// Find returns the representative of x's set, applying path halving.
func (d *DSU) Find(x int32) int32 {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

// Union merges the sets of a and b and returns the surviving
// representative. If they are already joined it returns that root.
func (d *DSU) Union(a, b int32) int32 {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return ra
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.size[ra] += d.size[rb]
	return ra
}

// UnionInto merges b's set into a's set keeping a's representative as the
// root. This is used when the surviving id carries external meaning (the
// new merged component id).
func (d *DSU) UnionInto(root, other int32) {
	rr, ro := d.Find(root), d.Find(other)
	if rr == ro {
		return
	}
	d.parent[ro] = rr
	d.size[rr] += d.size[ro]
}

// SetSize returns the size of x's set.
func (d *DSU) SetSize(x int32) int32 { return d.size[d.Find(x)] }

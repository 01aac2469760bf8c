package core

import "costdist/internal/sparse"

// slabMaxVerts caps the routing-window size (in vertices) for which a
// component's labels live in a dense generation-stamped array
// (sparse.LabelSlab, 24 B/vertex) instead of a hash map. Most nets'
// windows fit; huge windows fall back to the map to bound arena memory.
const slabMaxVerts = 1 << 16

// ownerFlatMaxV caps the graph size (in vertices) for which the
// vertex-ownership stamps live in a flat per-graph array (8 B/vertex per
// arena) instead of a hash map.
const ownerFlatMaxV = 1 << 25

// labelStore is a component's label container: a dense slab when the
// solve's window fits slabMaxVerts, a hash map otherwise. Both are keyed
// by dense window indices and behave identically; only the lookup cost
// differs. The zero value marks "no labels attached".
type labelStore struct {
	slab *sparse.LabelSlab
	m    *sparse.Map
}

func (ls labelStore) Get(i int32) *sparse.Label {
	if ls.slab != nil {
		return ls.slab.Get(i)
	}
	return ls.m.Get(i)
}

func (ls labelStore) Put(i int32) (*sparse.Label, bool) {
	if ls.slab != nil {
		return ls.slab.Put(i)
	}
	return ls.m.Put(i)
}

func (ls labelStore) Len() int {
	if ls.slab != nil {
		return ls.slab.Len()
	}
	if ls.m != nil {
		return ls.m.Len()
	}
	return 0
}

// Package sparse provides the two per-vertex stores of a cost-distance
// solve, both keyed by the dense index of a vertex in the net's routing
// window: LabelSlab, a paged array of Dijkstra labels (one per component
// search), and FlatI32, a flat int32 array (vertex → component
// ownership). Each per-component search labels only a local region of
// its window, so a dense array per search would cost O(t·n) memory;
// a LabelSlab takes fixed-size pages from a shared PagePool on first
// touch instead, which keeps memory and reset cost proportional to the
// labeled region with plain array indexing on the hot path.
//
// Both stores mark presence by a generation stamp per slot, issued by a
// Gen, so Reset never clears memory and retained capacity makes them
// suitable as arena members recycled across many solver calls
// (core.Scratch). The spread workspace of package embed stamps its
// labels with a Gen too.
package sparse

// Gen issues generation stamps. A store marks a slot live by writing the
// current stamp into it and empties itself in O(1) by taking the next
// one. Stamps start at 1, so zeroed memory never reads as live; the zero
// value has issued none.
type Gen struct{ cur uint32 }

// Next issues the next stamp. wrapped reports that the 32-bit counter
// ran out and restarted at 1: slots stamped before may hold the stamps
// Next issues from now on, so before it stamps anything with the new one
// the caller must forget them — clear its stamp slices, or drop its
// pages.
func (g *Gen) Next() (stamp uint32, wrapped bool) {
	g.cur++
	if g.cur == 0 {
		g.cur = 1
		return g.cur, true
	}
	return g.cur, false
}

// Cur returns the last stamp issued, 0 before the first.
func (g *Gen) Cur() uint32 { return g.cur }

// Park sets the counter as if last were the latest stamp issued, so a
// test can step a store over the wrap of the 32-bit counter.
func (g *Gen) Park(last uint32) { g.cur = last }

// Label is a Dijkstra label: tentative distance, the grid predecessor
// code by which the search reached the vertex (grid.CodeSeed and its
// siblings, decoded by grid.Graph.Pred) and a permanence flag. The
// slot's generation stamp rides in the label's padding, so a slot is
// 16 B. Write a label field by field: assigning a whole Label clears its
// stamp.
type Label struct {
	Dist  float64
	stamp uint32 // slot is live iff stamp == the holding slab's stamp
	Code  uint8
	Perm  bool
}

// PageSlots is the number of label slots of one LabelSlab page (16 B
// each, 4 KB a page). Measured on the repo's benchmark at 128, 256 and 512: smaller
// pages follow a narrow goal-oriented search more closely, larger ones
// shorten the page tables, and the three read within noise of each
// other; see ARCHITECTURE.md "Flat per-window stores".
const PageSlots = 1 << pageShift

const (
	pageShift = 8
	pageMask  = PageSlots - 1
)

type labelPage [PageSlots]Label

// PagePool is the page supply shared by the LabelSlabs of one arena. It
// also issues their generation stamps: every slab Reset draws a stamp no
// other slab of the pool has used, so a page handed from one slab to the
// next needs no clearing — its old slots carry foreign stamps and read
// as absent.
//
// The zero value is an empty pool. Not safe for concurrent use.
type PagePool struct {
	free        []*labelPage
	gen         Gen
	inUse, peak int
}

// Peak returns the largest number of pages slabs of this pool have held
// at the same time.
func (p *PagePool) Peak() int { return p.peak }

// stamp issues the next generation stamp.
func (p *PagePool) stamp() uint32 {
	st, wrapped := p.gen.Next()
	if wrapped {
		// Drop the pooled pages now; those still held by slabs are
		// dropped when they come back (see Release).
		clear(p.free)
		p.free = p.free[:0]
	}
	return st
}

func (p *PagePool) get() *labelPage {
	p.inUse++
	if p.inUse > p.peak {
		p.peak = p.inUse
	}
	if n := len(p.free); n > 0 {
		pg := p.free[n-1]
		p.free = p.free[:n-1]
		return pg
	}
	return new(labelPage)
}

// LabelSlab is a Label store over a bounded index universe [0, n): a
// page table of ⌈n/PageSlots⌉ entries whose pages come from a PagePool on
// the first Put into them. Get and Put are two array accesses; memory
// follows the pages a search touches, not n.
//
// The zero value holds nothing; call Reset before use and Release when
// done with the labels.
type LabelSlab struct {
	pool  *PagePool
	pages []*labelPage
	stamp uint32
	n     int
}

// Reset empties the slab, returning its pages to their pool, and
// (re)sizes the universe to n slots backed by pool.
func (s *LabelSlab) Reset(pool *PagePool, n int) {
	s.Release()
	np := (n + PageSlots - 1) >> pageShift
	if cap(s.pages) < np {
		s.pages = make([]*labelPage, np)
	} else {
		s.pages = s.pages[:np] // Release left every entry nil
	}
	s.pool = pool
	s.stamp = pool.stamp()
}

// Release empties the slab and hands its pages back to the pool. The
// slab must be Reset before its next use; releasing twice is harmless.
func (s *LabelSlab) Release() {
	for i, pg := range s.pages {
		if pg == nil {
			continue
		}
		s.pages[i] = nil
		s.pool.inUse--
		// Stamps only grow until the counter wraps, so a slab whose stamp
		// is ahead of the counter drew it before a wrap: its pages may hold
		// any stamp value and must not be handed out again.
		if s.stamp <= s.pool.gen.Cur() {
			s.pool.free = append(s.pool.free, pg)
		}
	}
	s.pages = s.pages[:0]
	s.n = 0
}

// Len returns the number of live labels.
func (s *LabelSlab) Len() int { return s.n }

// Get returns a pointer to the label at index i, or nil if absent.
func (s *LabelSlab) Get(i int32) *Label {
	pg := s.pages[i>>pageShift]
	if pg == nil {
		return nil
	}
	l := &pg[i&pageMask]
	if l.stamp != s.stamp {
		return nil
	}
	return l
}

// Put returns a pointer to the label slot at index i, inserting a zero
// label if absent. The second result reports whether it already existed.
func (s *LabelSlab) Put(i int32) (*Label, bool) {
	pg := s.pages[i>>pageShift]
	if pg == nil {
		pg = s.pool.get()
		s.pages[i>>pageShift] = pg
	}
	l := &pg[i&pageMask]
	if l.stamp != s.stamp {
		*l = Label{stamp: s.stamp}
		s.n++
		return l, false
	}
	return l, true
}

// FlatI32 is a dense int32 store over a bounded index universe with a
// generation-stamped O(1) Reset. The solver keeps its vertex-ownership
// stamps (window index → component id) in one, sized to the routing
// window of the current solve.
//
// The zero value is empty; call Reset(n) before use.
type FlatI32 struct {
	val   []int32
	stamp []uint32
	gen   Gen
	n     int
}

// Reset clears the store in O(1) and (re)sizes the universe to n slots.
func (m *FlatI32) Reset(n int) {
	if cap(m.val) < n {
		m.val = make([]int32, n)
		m.stamp = make([]uint32, n)
	} else {
		m.val = m.val[:n]
		m.stamp = m.stamp[:n]
	}
	if _, wrapped := m.gen.Next(); wrapped {
		// Pay one clear, over the whole capacity so a later grow finds no
		// stale slot.
		clear(m.stamp[:cap(m.stamp)])
	}
	m.n = 0
}

// Len returns the number of stored keys.
func (m *FlatI32) Len() int { return m.n }

// Get returns the value stored at index i and whether it is present.
func (m *FlatI32) Get(i int32) (int32, bool) {
	if m.stamp[i] != m.gen.Cur() {
		return 0, false
	}
	return m.val[i], true
}

// Put stores val at index i, overwriting any previous value.
func (m *FlatI32) Put(i, val int32) {
	if m.stamp[i] != m.gen.Cur() {
		m.stamp[i] = m.gen.Cur()
		m.n++
	}
	m.val[i] = val
}

// PutIfAbsent stores val at index i unless present; it reports whether
// the value was stored.
func (m *FlatI32) PutIfAbsent(i, val int32) bool {
	if m.stamp[i] == m.gen.Cur() {
		return false
	}
	m.stamp[i] = m.gen.Cur()
	m.val[i] = val
	m.n++
	return true
}

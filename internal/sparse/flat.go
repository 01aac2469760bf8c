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
// Both stores mark presence by a generation stamp per slot, so Reset
// never clears memory and retained capacity makes them suitable as
// arena members recycled across many solver calls (core.Scratch).
package sparse

// Label is a Dijkstra label: tentative distance, predecessor vertex and
// the arc code by which the vertex was reached (see grid.ArcCode), plus a
// permanence flag.
type Label struct {
	Dist float64
	Prev int32
	Arc  uint8
	Perm bool
}

// PageSlots is the number of label slots of one LabelSlab page (24 B
// each). Measured on the repo's benchmark at 128, 256 and 512: smaller
// pages follow a narrow goal-oriented search more closely, larger ones
// shorten the page tables, and the three read within noise of each
// other; see ARCHITECTURE.md "Flat per-window stores".
const PageSlots = 1 << pageShift

const (
	pageShift = 8
	pageMask  = PageSlots - 1
)

type slabEntry struct {
	lab Label
	gen uint32 // slot is live iff gen == the holding slab's stamp
}

type labelPage [PageSlots]slabEntry

// PagePool is the page supply shared by the LabelSlabs of one arena. It
// also issues their generation stamps: every slab Reset draws a stamp no
// other slab of the pool has used, so a page handed from one slab to the
// next needs no clearing — its old slots carry foreign stamps and read
// as absent.
//
// The zero value is an empty pool. Not safe for concurrent use.
type PagePool struct {
	free        []*labelPage
	gen         uint32 // last stamp issued; restarts at 1 after a wrap
	inUse, peak int
}

// Peak returns the largest number of pages slabs of this pool have held
// at the same time.
func (p *PagePool) Peak() int { return p.peak }

// stamp issues the next generation stamp.
func (p *PagePool) stamp() uint32 {
	p.gen++
	if p.gen == 0 {
		// Wrapped: stamps issued from here on may equal ones left in pages
		// written before. Drop the pooled pages now; those still held by
		// slabs are dropped when they come back (see Release).
		clear(p.free)
		p.free = p.free[:0]
		p.gen = 1
	}
	return p.gen
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
	gen   uint32
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
	s.gen = pool.stamp()
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
		if s.gen <= s.pool.gen {
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
	e := &pg[i&pageMask]
	if e.gen != s.gen {
		return nil
	}
	return &e.lab
}

// Put returns a pointer to the label slot at index i, inserting a zero
// label if absent. The second result reports whether it already existed.
func (s *LabelSlab) Put(i int32) (*Label, bool) {
	pg := s.pages[i>>pageShift]
	if pg == nil {
		pg = s.pool.get()
		s.pages[i>>pageShift] = pg
	}
	e := &pg[i&pageMask]
	if e.gen != s.gen {
		e.gen = s.gen
		e.lab = Label{}
		s.n++
		return &e.lab, false
	}
	return &e.lab, true
}

// FlatI32 is a dense int32 store over a bounded index universe with a
// generation-stamped O(1) Reset. The solver keeps its vertex-ownership
// stamps (window index → component id) in one, sized to the routing
// window of the current solve.
//
// The zero value is empty; call Reset(n) before use.
type FlatI32 struct {
	val []int32
	gen []uint32
	cur uint32
	n   int
}

// Reset clears the store in O(1) and (re)sizes the universe to n slots.
func (m *FlatI32) Reset(n int) {
	if cap(m.val) < n {
		m.val = make([]int32, n)
		m.gen = make([]uint32, n)
	} else {
		m.val = m.val[:n]
		m.gen = m.gen[:n]
	}
	m.cur++
	if m.cur == 0 {
		// Stamp wrapped: old stamps would read as live; pay one clear,
		// over the whole capacity so a later grow finds no stale slot.
		clear(m.gen[:cap(m.gen)])
		m.cur = 1
	}
	m.n = 0
}

// Len returns the number of stored keys.
func (m *FlatI32) Len() int { return m.n }

// Get returns the value stored at index i and whether it is present.
func (m *FlatI32) Get(i int32) (int32, bool) {
	if m.gen[i] != m.cur {
		return 0, false
	}
	return m.val[i], true
}

// Put stores val at index i, overwriting any previous value.
func (m *FlatI32) Put(i, val int32) {
	if m.gen[i] != m.cur {
		m.gen[i] = m.cur
		m.n++
	}
	m.val[i] = val
}

// PutIfAbsent stores val at index i unless present; it reports whether
// the value was stored.
func (m *FlatI32) PutIfAbsent(i, val int32) bool {
	if m.gen[i] == m.cur {
		return false
	}
	m.gen[i] = m.cur
	m.val[i] = val
	m.n++
	return true
}

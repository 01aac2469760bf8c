package nets

import (
	"math"
	"sort"

	"costdist/internal/geom"
)

// windowFanout is the R-tree node fanout. Routing windows overlap
// heavily, so a moderate fanout keeps the tree shallow without inflating
// node bounding boxes too much.
const windowFanout = 8

// WindowIndex is a static, bulk-loaded R-tree over plane rectangles,
// packed with Sort-Tile-Recursive (STR). The incremental router packs
// one over the per-net invalidation regions and queries it with changed
// congestion regions to find the rip-up candidates: its dirty-net scan
// builds a fresh index on each pass that has a stashed price delta, and
// a warm start builds one for the capacity diff against its checkpoint.
// Build copies the rectangles. Construction and query order are
// deterministic.
type WindowIndex struct {
	rects []geom.Rect // entry rects in packed order
	ids   []int32     // caller ids parallel to rects
	// levels[0] holds the bounding boxes of leaf nodes (groups of
	// windowFanout consecutive entries); levels[k] groups levels[k-1].
	// The last level has a single root box.
	levels [][]geom.Rect
}

// BuildWindowIndex packs the rectangles into an STR R-tree. Entry i is
// reported as id int32(i). Empty rects are allowed and never match.
func BuildWindowIndex(rects []geom.Rect) *WindowIndex {
	n := len(rects)
	ix := &WindowIndex{rects: make([]geom.Rect, n), ids: make([]int32, n)}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	// STR: sort by center x, cut into vertical slices of whole leaves,
	// then sort each slice by center y. Ties break on id so the packing
	// is deterministic.
	cx := func(i int32) int64 { return int64(rects[i].X0) + int64(rects[i].X1) }
	cy := func(i int32) int64 { return int64(rects[i].Y0) + int64(rects[i].Y1) }
	sort.Slice(order, func(a, b int) bool {
		if cx(order[a]) != cx(order[b]) {
			return cx(order[a]) < cx(order[b])
		}
		return order[a] < order[b]
	})
	leaves := (n + windowFanout - 1) / windowFanout
	slices := int(math.Ceil(math.Sqrt(float64(leaves))))
	if slices < 1 {
		slices = 1
	}
	sliceSz := slices * windowFanout
	for lo := 0; lo < n; lo += sliceSz {
		hi := lo + sliceSz
		if hi > n {
			hi = n
		}
		s := order[lo:hi]
		sort.Slice(s, func(a, b int) bool {
			if cy(s[a]) != cy(s[b]) {
				return cy(s[a]) < cy(s[b])
			}
			return s[a] < s[b]
		})
	}
	for i, id := range order {
		ix.rects[i] = rects[id]
		ix.ids[i] = id
	}
	// Pack node levels bottom-up until a single root remains.
	level := make([]geom.Rect, 0, leaves)
	for lo := 0; lo < n; lo += windowFanout {
		hi := lo + windowFanout
		if hi > n {
			hi = n
		}
		b := geom.EmptyRect()
		for _, r := range ix.rects[lo:hi] {
			b = b.Union(r)
		}
		level = append(level, b)
	}
	for len(level) > 0 {
		ix.levels = append(ix.levels, level)
		if len(level) == 1 {
			break
		}
		up := make([]geom.Rect, 0, (len(level)+windowFanout-1)/windowFanout)
		for lo := 0; lo < len(level); lo += windowFanout {
			hi := lo + windowFanout
			if hi > len(level) {
				hi = len(level)
			}
			b := geom.EmptyRect()
			for _, r := range level[lo:hi] {
				b = b.Union(r)
			}
			up = append(up, b)
		}
		level = up
	}
	return ix
}

// Len returns the number of indexed rectangles.
func (ix *WindowIndex) Len() int { return len(ix.rects) }

// Query calls visit for the id of every indexed rectangle intersecting
// r, in ascending packed order. Each id is visited at most once per
// call; callers issuing multiple queries dedupe with their own flags.
func (ix *WindowIndex) Query(r geom.Rect, visit func(id int32)) {
	if len(ix.rects) == 0 || r.Empty() {
		return
	}
	ix.query(len(ix.levels)-1, 0, r, visit)
}

func (ix *WindowIndex) query(level, node int, r geom.Rect, visit func(id int32)) {
	if !r.Intersects(ix.levels[level][node]) {
		return
	}
	if level == 0 {
		lo := node * windowFanout
		hi := lo + windowFanout
		if hi > len(ix.rects) {
			hi = len(ix.rects)
		}
		for i := lo; i < hi; i++ {
			if r.Intersects(ix.rects[i]) {
				visit(ix.ids[i])
			}
		}
		return
	}
	lo := node * windowFanout
	hi := lo + windowFanout
	if hi > len(ix.levels[level-1]) {
		hi = len(ix.levels[level-1])
	}
	for c := lo; c < hi; c++ {
		ix.query(level-1, c, r, visit)
	}
}

package cong

import (
	"math"
	"sort"

	"costdist/internal/geom"
	"costdist/internal/grid"
)

// planeMarks accumulates marked plane gcells and merges them into
// row-run rectangles — the shared machinery behind DeltaTracker.Update
// (multiplier drift regions) and DiffRects (capacity diff regions).
type planeMarks struct {
	g       *grid.Graph
	mark    []bool  // plane gcell scratch bitmap, NX*NY
	touched []int32 // marked plane cell ids, for O(delta) reset
}

func newPlaneMarks(g *grid.Graph) *planeMarks {
	return &planeMarks{g: g, mark: make([]bool, int(g.NX)*int(g.NY))}
}

// markRect marks every gcell of r.
func (p *planeMarks) markRect(r geom.Rect) {
	for y := r.Y0; y <= r.Y1; y++ {
		for x := r.X0; x <= r.X1; x++ {
			c := y*p.g.NX + x
			if !p.mark[c] {
				p.mark[c] = true
				p.touched = append(p.touched, c)
			}
		}
	}
}

// rects merges the marked cells into per-row runs and resets the marks.
// Sorting cell ids orders them row-major, so runs are consecutive ids
// within one row.
func (p *planeMarks) rects() (rects []geom.Rect) {
	if len(p.touched) == 0 {
		return nil
	}
	sort.Slice(p.touched, func(a, b int) bool { return p.touched[a] < p.touched[b] })
	run := geom.Rect{}
	open := false
	flush := func() {
		if open {
			rects = append(rects, run)
			open = false
		}
	}
	for _, c := range p.touched {
		p.mark[c] = false
		x, y := c%p.g.NX, c/p.g.NX
		if open && y == run.Y0 && x == run.X1+1 {
			run.X1 = x
			continue
		}
		flush()
		run = geom.Rect{X0: x, Y0: y, X1: x, Y1: y}
		open = true
	}
	flush()
	p.touched = p.touched[:0]
	return rects
}

// DeltaTracker watches the per-segment congestion multipliers between
// routing waves and reports which plane regions changed, so the
// incremental router can invalidate only the nets whose routing windows
// overlap a price change. Cleanliness is judged against a reference
// snapshot, not against the previous wave: a segment whose multiplier
// drifts slowly still crosses the tolerance eventually, because the
// reference only advances when a change is reported.
type DeltaTracker struct {
	G *grid.Graph
	// Tol is the relative tolerance: segment s counts as changed when
	// |mult[s] − ref[s]| > Tol·ref[s]. Multipliers are clamped to ≥ 1,
	// so the relative test is always well-defined. Tol must be ≥ 0;
	// Tol = 0 reports any bitwise change.
	Tol float64

	ref   []float32 // multiplier snapshot changes are judged against
	marks *planeMarks
}

// NewDeltaTracker returns a tracker whose reference snapshot is the
// pricer's initial state (all multipliers 1).
func NewDeltaTracker(g *grid.Graph, tol float64) *DeltaTracker {
	t := &DeltaTracker{
		G:     g,
		Tol:   tol,
		ref:   make([]float32, g.NumSegs()),
		marks: newPlaneMarks(g),
	}
	for i := range t.ref {
		t.ref[i] = 1
	}
	return t
}

// Ref returns a copy of the reference snapshot. Checkpoints do not
// carry it: a warm-started run rebaselines it to the restored
// multipliers (SetRef).
func (t *DeltaTracker) Ref() []float32 {
	return append([]float32(nil), t.ref...)
}

// SetRef replaces the reference snapshot (warm-start restore). The
// slice is copied; it must have one entry per segment.
func (t *DeltaTracker) SetRef(ref []float32) {
	copy(t.ref, ref)
}

// Update compares mult against the reference snapshot. Segments beyond
// tolerance advance the reference and mark their gcells (all layers
// collapse onto one plane bitmap). It returns the changed plane regions
// as row-merged rectangles plus the number of changed segments — the
// wave's delta volume. The router advances the tracker only through
// Pricer.UpdateTracked, which fuses this sweep into the price update;
// Update is the sequential form it is held to.
func (t *DeltaTracker) Update(mult []float32) (rects []geom.Rect, changedSegs int) {
	g := t.G
	for s := range t.ref {
		// Fast path: an unchanged multiplier has drift exactly 0, which the
		// tolerance (≥ 0) never reports. Typical waves change a few
		// percent of the segments, so this skips almost the whole sweep.
		if mult[s] == t.ref[s] {
			continue
		}
		d := math.Abs(float64(mult[s]) - float64(t.ref[s]))
		if d > t.Tol*float64(t.ref[s]) {
			t.ref[s] = mult[s]
			changedSegs++
			t.marks.markRect(g.SegRect(int32(s)))
		}
	}
	return t.marks.rects(), changedSegs
}

// DiffRects returns the row-merged plane regions of segments whose
// values differ between a and b — the warm-start engine uses it to
// translate capacity edits between a checkpointed chip and a new chip
// into dirty-net candidate regions. Both slices must have one entry per
// segment of g.
func DiffRects(g *grid.Graph, a, b []float32) []geom.Rect {
	marks := newPlaneMarks(g)
	for s := range a {
		if a[s] != b[s] {
			marks.markRect(g.SegRect(int32(s)))
		}
	}
	return marks.rects()
}

// Package future provides admissible lower bounds ("future costs") for
// goal-oriented (A*) path searches, per paper §III-C. It holds two
// bounds and nothing else:
//
//   - Targets, the live-target table of one cost-distance solve
//     (internal/core): the bounding boxes of the components still alive
//     and, per direction, the lower envelope over the layer stack's wire
//     types of cost + w·delay for one gcell step.
//   - MaskEstimator (mask.go), the mask-aware completion bound of the
//     exact tier's goal-oriented solver.
//
// Targets are component bounding boxes rather than points: with the
// §III-A discounting a search may finish at any vertex of a target
// component, so the bound must underestimate the distance to the whole
// component. Congestion prices enter only through Costs.MinMult — the
// landmark (ALT) bounds that would have read them were measured and
// deleted, see ARCHITECTURE.md "Goal-oriented search".
package future

import (
	"math"

	"costdist/internal/geom"
	"costdist/internal/grid"
)

// Targets is the live-target table of one cost-distance solve: the
// bounding box of every component that is still alive, keyed by component
// id. A component enters at creation and leaves when a merge retires it,
// so the table never holds more than (sinks + 1) entries and a bound costs
// one tight pass over it — no cap on the number of targets is needed.
//
// The zero value is an empty table; Reset readies it for the next solve
// and keeps its capacity.
type Targets struct {
	wires []wire // one row per wire type of the stack
	live  []target
}

// wire is one wire type of one layer: what a gcell step on it costs under
// the price floor, what it delays, and which way it runs.
type wire struct {
	cost, delay float64
	dir         grid.Dir
}

type target struct {
	id  int32
	box geom.Rect
}

// Reset empties the table and takes one (cost·MinMult, delay, direction)
// row per wire type from c's layer stack.
func (t *Targets) Reset(c *grid.Costs) {
	t.wires = t.wires[:0]
	for li := range c.G.Layers {
		lay := &c.G.Layers[li]
		for _, w := range lay.Wires {
			t.wires = append(t.wires, wire{cost: w.CostPerGCell * c.MinMult, delay: w.DelayPerGCell, dir: lay.Dir})
		}
	}
	t.live = t.live[:0]
}

// Units returns the cheapest l_c-length, under delay weight w, of one
// gcell step in x and of one in y: the minimum of cost + w·delay over the
// wire types of the horizontal layers and of the vertical layers — the
// lower envelope of the stack's cost–delay lines at w. One wire attains
// each, so the pair is never below, and at timing-critical weights well
// above, the cheapest cost plus w times the fastest delay. A direction no
// layer runs in comes back +Inf.
func (t *Targets) Units(w float64) (ux, uy float64) {
	ux, uy = math.Inf(1), math.Inf(1)
	for i := range t.wires {
		r := &t.wires[i]
		u := r.cost + w*r.delay
		if r.dir == grid.DirH {
			ux = min(ux, u)
		} else {
			uy = min(uy, u)
		}
	}
	return ux, uy
}

// Len returns the number of live targets.
func (t *Targets) Len() int { return len(t.live) }

// Add enters component id with its bounding box.
func (t *Targets) Add(id int32, box geom.Rect) {
	t.live = append(t.live, target{id: id, box: box})
}

// Remove swaps component id out of the table and returns its box. The id
// must be live: a solve retires each component exactly once.
func (t *Targets) Remove(id int32) geom.Rect {
	for i := range t.live {
		if t.live[i].id == id {
			box := t.live[i].box
			last := len(t.live) - 1
			t.live[i] = t.live[last]
			t.live = t.live[:last]
			return box
		}
	}
	panic("future: Targets.Remove of a component that is not live")
}

// Est returns an admissible lower bound on the l_c-distance from plane
// position (x, y) to the nearest vertex of any live component other than
// self, given the per-direction step lengths ux, uy of the searching
// component's weight (Units): the minimum over the other boxes of
// dx·ux + dy·uy, where (dx, dy) is the plane offset to the box. Every
// x-step of a path runs on some horizontal layer's wire and costs at
// least ux, every y-step at least uy, and vias are free in the bound.
// With no other live component it returns 0 (plain Dijkstra).
//
// A direction's term counts only where its offset is positive, so a +Inf
// unit (no layer runs that way) bounds the boxes that need such a step as
// unreachable and leaves the others finite, never NaN.
func (t *Targets) Est(self int32, x, y int32, ux, uy float64) float64 {
	best, others := math.Inf(1), false
	for i := range t.live {
		e := &t.live[i]
		if e.id == self {
			continue
		}
		others = true
		dx := max(e.box.X0-x, x-e.box.X1, 0)
		dy := max(e.box.Y0-y, y-e.box.Y1, 0)
		d := 0.0
		if dx > 0 {
			d = float64(dx) * ux
		}
		if dy > 0 {
			d += float64(dy) * uy
		}
		if d < best {
			if d == 0 {
				return 0
			}
			best = d
		}
	}
	if !others {
		return 0
	}
	return best
}

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
	unitCost  float64 // per gcell step, under the price floor
	unitDelay float64 // per gcell step, fastest layer/wire combination
	live      []target
}

type target struct {
	id  int32
	box geom.Rect
}

// Reset empties the table and takes the per-gcell floors from c.
func (t *Targets) Reset(c *grid.Costs) {
	t.unitCost, t.unitDelay = c.MinCostPerGCell(), c.MinDelayPerGCell()
	t.live = t.live[:0]
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

// Est returns an admissible lower bound on the l_c-distance, under delay
// weight w, from plane position (x, y) to the nearest vertex of any live
// component other than self: the L1 distance to the nearest other box
// times the cheapest cost-plus-weighted-delay of one gcell step. With no
// other live component it returns 0 (plain Dijkstra).
func (t *Targets) Est(self int32, x, y int32, w float64) float64 {
	p := geom.Pt{X: x, Y: y}
	best := int64(math.MaxInt64)
	for i := range t.live {
		e := &t.live[i]
		if e.id == self {
			continue
		}
		if d := rectDist(p, e.box); d < best {
			if d == 0 {
				return 0
			}
			best = d
		}
	}
	if best == math.MaxInt64 {
		return 0
	}
	return float64(best) * (t.unitCost + w*t.unitDelay)
}

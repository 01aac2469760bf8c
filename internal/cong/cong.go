// Package cong implements the congestion side of timing-constrained
// global routing: per-segment usage accounting, multiplicative-weight
// congestion pricing in the style of the resource sharing algorithm of
// ref [13], and the ACE routability metric of ref [19] used in the
// paper's Tables IV and V.
package cong

import (
	"math"
	"sort"

	"costdist/internal/geom"
	"costdist/internal/grid"
)

// Usage accumulates capacity consumption per segment.
type Usage struct {
	G *grid.Graph
	U []float32
}

// NewUsage returns zeroed usage for g.
func NewUsage(g *grid.Graph) *Usage {
	return &Usage{G: g, U: make([]float32, g.NumSegs())}
}

// Reset zeroes all usage.
func (u *Usage) Reset() {
	for i := range u.U {
		u.U[i] = 0
	}
}

// AddArc records one arc traversal.
func (u *Usage) AddArc(a grid.Arc) {
	u.U[a.Seg] += u.G.ArcCapUse(a)
}

// WirelengthM returns the total routed track length in meters (vias
// excluded): capacity units consumed per segment times the gcell pitch,
// so wide wires count their full track usage, as foundry wirelength
// reports do.
func (u *Usage) WirelengthM() float64 {
	total := 0.0
	for s := int32(0); s < u.G.NumRouteSegs(); s++ {
		if u.U[s] > 0 {
			total += float64(u.U[s])
		}
	}
	return total * u.G.LenUM * 1e-6
}

// Pricer maintains per-segment congestion price multipliers using
// multiplicative weights: after each routing wave,
//
//	mult[s] ← mult[s] · exp(alpha · (usage[s]/cap[s] − target))
//
// clamped to [1, maxMult]. Segments above the target utilization get
// exponentially more expensive, which is the Lagrangean congestion price
// of the resource sharing formulation.
type Pricer struct {
	G      *grid.Graph
	Alpha  float64
	Target float64
	Mult   []float32
}

// maxMult caps every multiplier.
const maxMult = 64

// NewPricer returns a pricer with all multipliers at 1.
func NewPricer(g *grid.Graph, alpha, target float64) *Pricer {
	p := &Pricer{G: g, Alpha: alpha, Target: target, Mult: make([]float32, g.NumSegs())}
	for i := range p.Mult {
		p.Mult[i] = 1
	}
	return p
}

// Update applies one multiplicative-weights step from the wave's usage.
func (p *Pricer) Update(u *Usage) {
	for s := range p.Mult {
		p.step(s, u.U[s])
	}
}

// step updates one segment's multiplier from its usage. The fast path
// skips the exponential for the dominant case — an unpriced segment
// (mult exactly 1) at or below the target utilization: there
// exp(α·(ratio−target)) ≤ 1, so the update clamps back to exactly 1 and
// the result is bitwise what the slow path computes.
func (p *Pricer) step(s int, use float32) {
	cap := p.G.Cap[s]
	var ratio float64
	if cap <= 0 {
		// Blocked segment: treat any usage as infinite overflow.
		if use > 0 {
			ratio = 4
		}
	} else {
		ratio = float64(use) / float64(cap)
	}
	if p.Mult[s] == 1 && ratio <= p.Target && p.Alpha >= 0 {
		return
	}
	m := float64(p.Mult[s]) * math.Exp(p.Alpha*(ratio-p.Target))
	if m < 1 {
		m = 1
	}
	if m > maxMult {
		m = maxMult
	}
	p.Mult[s] = float32(m)
}

// UpdateTracked applies one multiplicative-weights step and, in the same
// pass over the segments, diffs the new multipliers against the delta
// tracker's reference. The router calls this at the end of each wave so
// the two chip-wide sweeps the incremental engine used to pay per wave —
// Pricer.Update at wave end, then DeltaTracker.Update at the next wave's
// start — collapse into one. Results are bitwise identical to
// p.Update(u) followed by t.Update(p.Mult); t must track the same grid.
func (p *Pricer) UpdateTracked(t *DeltaTracker, u *Usage) (rects []geom.Rect, changedSegs int) {
	for s := range p.Mult {
		p.step(s, u.U[s])
		m := p.Mult[s]
		if m == t.ref[s] {
			continue
		}
		d := math.Abs(float64(m) - float64(t.ref[s]))
		if d > t.Tol*float64(t.ref[s]) {
			t.ref[s] = m
			changedSegs++
			t.marks.markRect(p.G.SegRect(int32(s)))
		}
	}
	return t.marks.rects(), changedSegs
}

// Costs returns a grid.Costs view of the current prices.
func (p *Pricer) Costs() *grid.Costs {
	c := grid.NewCosts(p.G)
	c.Mult = p.Mult
	c.MinMult = 1
	return c
}

// ACE returns the Average Congestion of the Edges for each requested
// top-percentile x (in percent): the mean usage/capacity ratio, in
// percent, over the x% most congested routing segments with nonzero
// capacity (ref [19]). Via segments are excluded, matching common
// practice.
func ACE(u *Usage, percents []float64) []float64 {
	g := u.G
	ratios := make([]float64, 0, g.NumRouteSegs())
	for s := int32(0); s < g.NumRouteSegs(); s++ {
		if g.Cap[s] > 0 {
			ratios = append(ratios, float64(u.U[s])/float64(g.Cap[s]))
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ratios)))
	out := make([]float64, len(percents))
	for i, pct := range percents {
		k := int(math.Ceil(pct / 100 * float64(len(ratios))))
		if k < 1 {
			k = 1
		}
		if k > len(ratios) {
			k = len(ratios)
		}
		sum := 0.0
		for _, r := range ratios[:k] {
			sum += r
		}
		out[i] = 100 * sum / float64(k)
	}
	return out
}

// ACE4 returns (ACE(0.5)+ACE(1)+ACE(2)+ACE(5))/4, the paper's headline
// congestion metric (§IV-C). Roughly: ≤93% is routable, >90% already
// forces detours in detailed routing.
func ACE4(u *Usage) float64 {
	a := ACE(u, []float64{0.5, 1, 2, 5})
	return (a[0] + a[1] + a[2] + a[3]) / 4
}

// Overflow returns the total capacity overflow Σ max(0, usage-cap) over
// all segments, a secondary congestion indicator used in tests.
func Overflow(u *Usage) float64 {
	total := 0.0
	for s := range u.U {
		if over := float64(u.U[s]) - float64(u.G.Cap[s]); over > 0 {
			total += over
		}
	}
	return total
}

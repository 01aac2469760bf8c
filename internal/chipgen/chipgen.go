// Package chipgen generates synthetic chip designs for the experiments.
// The paper evaluates on eight proprietary 5nm industrial designs
// (Table III: c1..c8 with 49k–941k nets on 7–15 metal layers); those are
// not available, so per the reproduction ground rules we substitute
// synthetic designs that match Table III's layer counts exactly and
// scale the net counts by a configurable factor. Placement locality
// (Rent-style short nets plus a tail of long ones), a fanout
// distribution covering all of Tables I/II's |S| buckets, capacity
// hotspots ("macros") and a tight clock give the routing problem the
// same qualitative character: congestion in the 85–93% ACE4 band and
// designs that start timing-infeasible.
package chipgen

import (
	"fmt"
	"math"
	"math/rand/v2"

	"costdist/internal/dly"
	"costdist/internal/geom"
	"costdist/internal/grid"
	"costdist/internal/sta"
)

// Spec parameterizes one synthetic design.
type Spec struct {
	Name   string
	Layers int
	// NNets is the target net count (cells ≈ nets).
	NNets int
	// Seed makes generation deterministic.
	Seed uint64
	// Density is the average cell count per gcell; it sizes the die.
	Density float64
	// Levels is the logic depth (pipeline length).
	Levels int
	// Hotspots is the number of capacity-reduced macro regions.
	Hotspots int
	// ClkTightness scales the clock period relative to the estimated
	// unrouted critical path (<1 starts infeasible).
	ClkTightness float64
}

// Chip is a generated design: routing graph, technology and netlist.
type Chip struct {
	Spec Spec
	G    *grid.Graph
	Tech dly.Tech
	NL   *sta.Netlist
	// ClkPeriod is the timing constraint in ps.
	ClkPeriod float64
	// DBif is the technology-derived bifurcation penalty (paper §I).
	DBif float64
}

// PinVertex returns the routing graph vertex of a cell's pins (layer 0
// of its gcell).
func (c *Chip) PinVertex(cell int32) grid.V {
	p := c.NL.Cells[cell].Pos
	return c.G.At(p.X, p.Y, 0)
}

// Suite returns the c1..c8 specs with the paper's layer counts
// (Table III) and net counts scaled by scale (1.0 = paper size).
func Suite(scale float64) []Spec {
	base := []struct {
		name   string
		nets   int
		layers int
	}{
		{"c1", 49734, 8},
		{"c2", 66500, 9},
		{"c3", 286619, 7},
		{"c4", 305094, 15},
		{"c5", 420131, 9},
		{"c6", 590060, 9},
		{"c7", 650127, 15},
		{"c8", 941271, 15},
	}
	out := make([]Spec, len(base))
	for i, b := range base {
		n := int(float64(b.nets) * scale)
		if n < 60 {
			n = 60
		}
		out[i] = Spec{
			Name:         b.name,
			Layers:       b.layers,
			NNets:        n,
			Seed:         uint64(1000 + i),
			Density:      0.9,
			Levels:       10,
			Hotspots:     3 + i,
			ClkTightness: 1.08,
		}
	}
	return out
}

// fanout distribution: sink counts per net, chosen so that the |S|
// buckets of Tables I/II (3-5, 6-14, 15-29, ≥30) are all populated in
// roughly the paper's proportions (most instances small, a heavy tail).
func sinkCount(rng *rand.Rand) int {
	r := rng.Float64()
	switch {
	case r < 0.45:
		return 1
	case r < 0.62:
		return 2
	case r < 0.85:
		return 3 + rng.IntN(3) // 3-5
	case r < 0.955:
		return 6 + rng.IntN(9) // 6-14
	case r < 0.99:
		return 15 + rng.IntN(15) // 15-29
	default:
		return 30 + rng.IntN(34) // ≥ 30
	}
}

// Generate builds the design.
func Generate(spec Spec) (*Chip, error) {
	if spec.Layers < 2 || spec.NNets < 1 || spec.Levels < 2 {
		return nil, fmt.Errorf("chipgen: bad spec %+v", spec)
	}
	rng := rand.New(rand.NewPCG(spec.Seed, 0xC0FFEE))
	tech := dly.DefaultTech(spec.Layers)

	nCells := spec.NNets + spec.NNets/8 + 8
	side := int32(math.Ceil(math.Sqrt(float64(nCells) / spec.Density)))
	if side < 8 {
		side = 8
	}
	g := grid.New(side, side, tech.BuildLayers(), tech.GCellUM)

	// Capacity hotspots: rectangles with most routing capacity removed
	// on the lower half of the stack (macro blockages).
	for h := 0; h < spec.Hotspots; h++ {
		w := 2 + rng.Int32N(side/4+1)
		ht := 2 + rng.Int32N(side/4+1)
		x0 := rng.Int32N(side - w)
		y0 := rng.Int32N(side - ht)
		for l := 0; l < spec.Layers/2; l++ {
			for y := y0; y < y0+ht; y++ {
				for x := x0; x < x0+w; x++ {
					if g.Layers[l].Dir == grid.DirH {
						if x < side-1 {
							s := g.SegH(int32(l), y, x)
							g.Cap[s] *= 0.25
						}
					} else if y < side-1 {
						s := g.SegV(int32(l), x, y)
						g.Cap[s] *= 0.25
					}
				}
			}
		}
	}

	// Cells: clustered placement. A set of cluster centers; cells place
	// near a random center with exponential falloff, levels assigned
	// round-robin with jitter so nets can stay local.
	nl := &sta.Netlist{}
	nClusters := 4 + nCells/400
	centers := make([]geom.Pt, nClusters)
	for i := range centers {
		centers[i] = geom.Pt{X: rng.Int32N(side), Y: rng.Int32N(side)}
	}
	clamp := func(v int32) int32 {
		if v < 0 {
			return 0
		}
		if v >= side {
			return side - 1
		}
		return v
	}
	cellsPerLevel := nCells / spec.Levels
	if cellsPerLevel < 1 {
		cellsPerLevel = 1
	}
	for i := 0; i < nCells; i++ {
		c := centers[rng.IntN(nClusters)]
		dx := int32(rng.NormFloat64() * float64(side) / 10)
		dy := int32(rng.NormFloat64() * float64(side) / 10)
		lvl := int32(i / cellsPerLevel)
		if int(lvl) >= spec.Levels {
			lvl = int32(spec.Levels - 1)
		}
		nl.Cells = append(nl.Cells, sta.Cell{
			Pos:   geom.Pt{X: clamp(c.X + dx), Y: clamp(c.Y + dy)},
			Delay: 4 + rng.Float64()*8,
			Level: lvl,
			PI:    lvl == 0,
			PO:    int(lvl) == spec.Levels-1,
		})
	}

	// Index cells by level for sink selection.
	byLevel := make([][]int32, spec.Levels)
	for ci, c := range nl.Cells {
		byLevel[c.Level] = append(byLevel[c.Level], int32(ci))
	}

	// Nets: drivers drawn from non-final levels; sinks from strictly
	// higher levels, preferring nearby cells (locality radius grows
	// until enough candidates are found).
	driven := make([]bool, len(nl.Cells))
	for n := 0; n < spec.NNets; n++ {
		lvl := rng.IntN(spec.Levels - 1)
		cands := byLevel[lvl]
		if len(cands) == 0 {
			continue
		}
		drv := cands[rng.IntN(len(cands))]
		k := sinkCount(rng)
		sinks := pickSinks(rng, nl, byLevel, drv, lvl, k, side)
		if len(sinks) == 0 {
			continue
		}
		for _, s := range sinks {
			driven[s] = true
		}
		nl.Nets = append(nl.Nets, sta.Net{Driver: drv, Sinks: sinks})
	}
	// Cover undriven non-PI cells with 2-pin nets from level-0 cells.
	for ci, c := range nl.Cells {
		if c.PI || driven[ci] {
			continue
		}
		lvl := int(c.Level) - 1
		if lvl < 0 {
			lvl = 0
		}
		cands := byLevel[rng.IntN(lvl+1)]
		if len(cands) == 0 {
			continue
		}
		drv := cands[rng.IntN(len(cands))]
		nl.Nets = append(nl.Nets, sta.Net{Driver: drv, Sinks: []int32{int32(ci)}})
		driven[ci] = true
	}
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("chipgen: generated netlist invalid: %w", err)
	}

	// Clock: fraction of the estimated unrouted critical path, the
	// largest PO arrival with an average per-net delay of ~8 gcells on a
	// mid-stack layer.
	mid := tech.Layers[len(tech.Layers)/2].Wires[0]
	perNet := dly.DelayPerUM(mid.RPerUM, mid.CPerUM, tech.Buf) * tech.GCellUM * 8
	est := sta.Analyze(nl, func(int, int) float64 { return perNet }, 0)
	longest := 0.0
	for ci, c := range nl.Cells {
		if c.PO && est.AT[ci] > longest {
			longest = est.AT[ci]
		}
	}
	clk := spec.ClkTightness * longest

	return &Chip{
		Spec: spec, G: g, Tech: tech, NL: nl,
		ClkPeriod: clk,
		DBif:      tech.Dbif(),
	}, nil
}

// pickSinks selects up to k distinct sinks for drv on levels above lvl,
// preferring cells within a growing locality radius.
func pickSinks(rng *rand.Rand, nl *sta.Netlist, byLevel [][]int32, drv int32, lvl, k int, side int32) []int32 {
	pos := nl.Cells[drv].Pos
	var sinks []int32
	used := map[int32]bool{drv: true}
	radius := side / 8
	if radius < 4 {
		radius = 4
	}
	for attempts := 0; len(sinks) < k && attempts < k*30; attempts++ {
		hi := lvl + 1 + rng.IntN(len(byLevel)-lvl-1)
		cands := byLevel[hi]
		if len(cands) == 0 {
			continue
		}
		s := cands[rng.IntN(len(cands))]
		if used[s] {
			continue
		}
		if geom.L1(pos, nl.Cells[s].Pos) > int64(radius) {
			// Occasionally allow a long net; otherwise grow the radius
			// slowly so dense specs stay local.
			if rng.IntN(8) != 0 {
				radius += radius / 8
				continue
			}
		}
		used[s] = true
		sinks = append(sinks, s)
	}
	return sinks
}

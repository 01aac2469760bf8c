// Package dly implements the linear delay model used before buffering
// (paper §I, refs [4],[18]): every wire type on every layer gets a delay
// per unit length derived from an optimally spaced uniform repeater
// chain, and the bifurcation penalty dbif is the delay increase caused by
// adding a repeater input capacitance in the middle of a single net,
// minimized over all layers and wire types — exactly the recipe the paper
// describes for computing dbif.
//
// Units: resistance in Ω, capacitance in fF, delay in ps, length in µm.
// One Ω·fF equals 1e-3 ps.
package dly

import (
	"fmt"
	"math"

	"costdist/internal/grid"
)

const psPerOhmFF = 1e-3

// Buffer describes the repeater used by the chain model.
type Buffer struct {
	ROut      float64 // output resistance, Ω
	CIn       float64 // input capacitance, fF
	Intrinsic float64 // intrinsic delay, ps
}

// WireRC is the electrical description of one wire type.
type WireRC struct {
	Name   string
	RPerUM float64 // Ω/µm
	CPerUM float64 // fF/µm
	CapUse float32 // routing tracks consumed per gcell step
}

// LayerRC describes one routing layer of the technology.
type LayerRC struct {
	Name     string
	Dir      grid.Dir
	Wires    []WireRC
	SegCap   float32
	ViaCap   float32
	ViaR     float64 // Ω per via cut
	ViaDelay float64 // ps, fixed via delay in the linear model
	ViaCost  float64
}

// Tech bundles a layer stack with its repeater.
type Tech struct {
	Name   string
	Buf    Buffer
	Layers []LayerRC
	// GCellUM is the physical gcell pitch in µm.
	GCellUM float64
}

// OptimalSpacing returns the repeater spacing ℓ* minimizing delay per unit
// length on a wire with resistance r (Ω/µm) and capacitance c (fF/µm):
//
//	D(ℓ) = Intrinsic + ROut·(c·ℓ + CIn) + r·ℓ·(c·ℓ/2 + CIn)
//
// d(D(ℓ)/ℓ)/dℓ = 0  ⇒  ℓ* = sqrt(2·(Intrinsic + ROut·CIn)/(r·c)).
func OptimalSpacing(r, c float64, buf Buffer) float64 {
	num := 2 * (buf.Intrinsic + buf.ROut*buf.CIn*psPerOhmFF)
	den := r * c * psPerOhmFF
	return math.Sqrt(num / den)
}

// SegmentDelay returns the delay D(ℓ) in ps of one repeater segment of
// length ℓ µm on the given wire.
func SegmentDelay(r, c, l float64, buf Buffer) float64 {
	return buf.Intrinsic +
		buf.ROut*(c*l+buf.CIn)*psPerOhmFF +
		r*l*(c*l/2+buf.CIn)*psPerOhmFF
}

// DelayPerUM returns the delay per µm (ps/µm) of the optimally buffered
// wire — the linear delay model coefficient for this wire type.
func DelayPerUM(r, c float64, buf Buffer) float64 {
	l := OptimalSpacing(r, c, buf)
	return SegmentDelay(r, c, l, buf) / l
}

// BifPenalty returns the delay increase in ps caused by attaching an
// extra repeater input capacitance at the midpoint of one optimally
// spaced repeater segment of this wire: the upstream wire resistance to
// the midpoint is r·ℓ*/2 and the driver adds ROut, so
//
//	Δ = (ROut + r·ℓ*/2) · CIn.
func BifPenalty(r, c float64, buf Buffer) float64 {
	l := OptimalSpacing(r, c, buf)
	return (buf.ROut + r*l/2) * buf.CIn * psPerOhmFF
}

// Dbif returns the bifurcation delay penalty of the technology: the
// minimum BifPenalty over all layers and wire types (paper §I: "dbif is
// the delay increase when adding the input capacitance in the middle of
// a single net, minimizing over all layers and wire types").
func (t Tech) Dbif() float64 {
	best := math.Inf(1)
	for _, lay := range t.Layers {
		for _, w := range lay.Wires {
			if p := BifPenalty(w.RPerUM, w.CPerUM, t.Buf); p < best {
				best = p
			}
		}
	}
	return best
}

// BuildLayers converts the technology into the grid layer stack: each
// wire type's DelayPerGCell comes from the repeater chain model and its
// CostPerGCell is proportional to the capacity it consumes, so congestion
// pricing acts on track usage.
func (t Tech) BuildLayers() []grid.Layer {
	out := make([]grid.Layer, len(t.Layers))
	for i, lay := range t.Layers {
		gl := grid.Layer{
			Name:      lay.Name,
			Dir:       lay.Dir,
			SegCap:    lay.SegCap,
			ViaCap:    lay.ViaCap,
			ViaCost:   lay.ViaCost,
			ViaDelay:  lay.ViaDelay,
			ViaCapUse: 1,
			Wires:     make([]grid.WireType, 0, len(lay.Wires)),
		}
		for _, w := range lay.Wires {
			gl.Wires = append(gl.Wires, grid.WireType{
				Name:          fmt.Sprintf("%s.%s", lay.Name, w.Name),
				CostPerGCell:  float64(w.CapUse),
				DelayPerGCell: DelayPerUM(w.RPerUM, w.CPerUM, t.Buf) * t.GCellUM,
				CapUse:        w.CapUse,
			})
		}
		out[i] = gl
	}
	return out
}

// DefaultTech returns a plausible 5nm-flavoured technology with nLayers
// routing layers: thin, resistive lower layers and thick, fast upper
// layers, alternating preferred directions. Mid and upper layers offer a
// wide wire type that is faster but consumes more tracks — the
// cost/delay trade-off that makes layer and wire type assignment matter.
func DefaultTech(nLayers int) Tech {
	if nLayers < 2 {
		panic("dly: need at least 2 layers")
	}
	t := Tech{
		Name:    fmt.Sprintf("synth5nm-%dL", nLayers),
		Buf:     Buffer{ROut: 200, CIn: 1.2, Intrinsic: 8},
		GCellUM: 50,
		Layers:  make([]LayerRC, 0, nLayers),
	}
	for i := 0; i < nLayers; i++ {
		frac := float64(i) / float64(nLayers-1) // 0 = bottom, 1 = top
		// Resistance falls steeply with height, capacitance is flat-ish.
		r := 800 * math.Pow(0.08, frac) // 800 Ω/µm down to 64 Ω/µm·0.08 ≈ thick top
		c := 0.18 + 0.04*frac
		dir := grid.DirH
		if i%2 == 1 {
			dir = grid.DirV
		}
		lay := LayerRC{
			Name:     fmt.Sprintf("M%d", i+1),
			Dir:      dir,
			SegCap:   float32(24 + 13*i), // more tracks per gcell on upper (coarser) layers
			ViaCap:   24,
			ViaR:     30,
			ViaDelay: 1.0 + 0.5*(1-frac), // lower vias slightly slower
			ViaCost:  1.5,
			Wires:    make([]WireRC, 0, 2),
		}
		lay.Wires = append(lay.Wires, WireRC{Name: "w1", RPerUM: r, CPerUM: c, CapUse: 1})
		if i >= nLayers/3 {
			// Wide wire: ~40% of the resistance, twice the tracks.
			lay.Wires = append(lay.Wires, WireRC{Name: "w2", RPerUM: 0.4 * r, CPerUM: c * 1.15, CapUse: 2})
		}
		t.Layers = append(t.Layers, lay)
	}
	return t
}

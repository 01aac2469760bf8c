// Package buffering inserts repeaters along embedded Steiner trees and
// computes the resulting stage-by-stage Elmore delays. The paper's
// setting is global routing *before* buffering, with delays estimated by
// the linear model of package dly; this package provides the "after"
// side: it places repeaters at the optimal spacing ℓ* of each wire and
// charges the extra capacitive delay at bifurcations — which is exactly
// the quantity dbif models (paper §I and Figure 2). Tests use it to
// validate that the linear model and the bifurcation penalty predict
// buffered reality.
package buffering

import (
	"fmt"

	"costdist/internal/dly"
	"costdist/internal/nets"
)

// Result reports a buffered tree.
type Result struct {
	// Buffers is the number of inserted repeaters.
	Buffers int
	// SinkDelay is the root-to-sink Elmore delay in ps, per sink, with
	// explicit repeater stages and bifurcation load delays.
	SinkDelay []float64
	// LinearDelay is the linear-model prediction for the same tree
	// (edge delays plus λ·dbif penalties, from nets.Evaluate), for
	// comparison.
	LinearDelay []float64
}

// state carries the open (unbuffered) wire stage while walking down.
type state struct {
	delay  float64 // committed delay up to the last repeater, ps
	openUM float64 // unbuffered wire length since the last repeater, µm
	openR  float64 // accumulated resistance of the open stage, Ω
	openC  float64 // accumulated capacitance of the open stage, fF
	extraC float64 // branch repeater inputs loading the stage, fF
}

// Buffer inserts repeaters into the tree: along every root-to-leaf walk
// a repeater is placed whenever the open wire of the current layer
// reaches its optimal spacing ℓ*; at every bifurcation each extra branch
// hangs one repeater input capacitance on the open stage (the dbif
// mechanism). Via delays pass through unbuffered.
func Buffer(in *nets.Instance, tr *nets.RTree, tech dly.Tech) (*Result, error) {
	ev, err := nets.Evaluate(in, tr)
	if err != nil {
		return nil, fmt.Errorf("buffering: %w", err)
	}

	var r nets.Rooted
	r.Build(in.Root, tr.Steps, in.Sinks)

	res := &Result{
		SinkDelay:   make([]float64, len(in.Sinks)),
		LinearDelay: ev.SinkDelay,
	}
	buf := tech.Buf

	// closeStage commits the open stage into a repeater: Elmore delay of
	// the driving repeater (ROut against everything downstream) plus the
	// distributed wire, loaded by the next repeater's input.
	closeStage := func(st state) state {
		d := st.delay + buf.Intrinsic +
			(buf.ROut*(st.openC+buf.CIn+st.extraC)+
				st.openR*(st.openC/2+buf.CIn+st.extraC))*1e-3
		return state{delay: d}
	}
	// terminate ends the walk at a sink pin (load ≈ one input cap).
	terminate := func(st state) float64 {
		return st.delay +
			(buf.ROut*(st.openC+buf.CIn+st.extraC)+
				st.openR*(st.openC/2+buf.CIn+st.extraC))*1e-3
	}

	var walk func(v int32, st state)
	walk = func(v int32, st state) {
		lo, hi := r.KidOff[v], r.KidOff[v+1]
		for _, si := range r.SinksAt(v) {
			res.SinkDelay[si] = terminate(st)
		}
		branchExtra := 0.0
		if extra := int(hi-lo) - 1; extra > 0 {
			// Each extra branch is shielded behind its own repeater
			// whose input loads the current stage.
			branchExtra = buf.CIn * float64(extra)
			res.Buffers += extra
		}
		for c := lo; c < hi; c++ {
			arc := tr.Steps[r.Step[c]].Arc
			next := st
			next.extraC += branchExtra
			if arc.Via {
				next.delay += tech.Layers[arc.L].ViaDelay
				walk(c, next)
				continue
			}
			w := tech.Layers[arc.L].Wires[arc.WT]
			lstar := dly.OptimalSpacing(w.RPerUM, w.CPerUM, buf)
			remain := tech.GCellUM
			for remain > 1e-12 {
				room := lstar - next.openUM
				if room <= 1e-12 {
					next = closeStage(next)
					res.Buffers++
					continue
				}
				add := remain
				if add > room {
					add = room
				}
				next.openUM += add
				next.openR += w.RPerUM * add
				next.openC += w.CPerUM * add
				remain -= add
			}
			walk(c, next)
		}
	}
	walk(0, state{})
	return res, nil
}

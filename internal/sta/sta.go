// Package sta provides the static timing analysis substrate for
// timing-constrained global routing: a leveled combinational netlist
// (cells with intrinsic delays, nets connecting driver output pins to
// sink input pins) and forward/backward arrival-time propagation
// producing per-pin slacks, worst slack (WS) and total negative slack
// (TNS) — the timing columns of the paper's Tables IV and V.
//
// The delay of a net's driver-to-sink connection comes from the global
// router's embedded trees (linear delay model, eq. (3)); sta is agnostic
// to how it was computed.
package sta

import (
	"fmt"
	"math"
	"sort"

	"costdist/internal/geom"
)

// Cell is a combinational cell (or primary input/output marker) placed
// on the gcell grid.
type Cell struct {
	Pos geom.Pt
	// Delay is the intrinsic input-to-output delay in ps.
	Delay float64
	// Level is the topological level; nets connect lower-level drivers
	// to strictly higher-level sinks, guaranteeing acyclicity.
	Level int32
	// PI marks primary inputs (arrival time 0 at their output).
	PI bool
	// PO marks timing endpoints (required time = clock period).
	PO bool
}

// Net connects the output of Driver to the inputs of the Sinks.
type Net struct {
	Driver int32
	Sinks  []int32
}

// Netlist is a placed, leveled netlist.
type Netlist struct {
	Cells []Cell
	Nets  []Net
}

// Validate checks structural invariants: indices in range, nets strictly
// level-increasing, every non-PI cell driven by at least one net.
func (nl *Netlist) Validate() error {
	driven := make([]bool, len(nl.Cells))
	for ni, n := range nl.Nets {
		if n.Driver < 0 || int(n.Driver) >= len(nl.Cells) {
			return fmt.Errorf("sta: net %d driver out of range", ni)
		}
		for _, s := range n.Sinks {
			if s < 0 || int(s) >= len(nl.Cells) {
				return fmt.Errorf("sta: net %d sink out of range", ni)
			}
			if nl.Cells[s].Level <= nl.Cells[n.Driver].Level {
				return fmt.Errorf("sta: net %d not level-increasing (%d -> %d)", ni, nl.Cells[n.Driver].Level, nl.Cells[s].Level)
			}
			driven[s] = true
		}
	}
	for ci, c := range nl.Cells {
		if !c.PI && !driven[ci] {
			return fmt.Errorf("sta: cell %d has no driving net and is not a PI", ci)
		}
	}
	return nil
}

// NetDelayFn returns the routed delay from net n's driver pin to its
// k-th sink pin, in ps.
type NetDelayFn func(net, sinkIdx int) float64

// Result carries the analysis outputs.
type Result struct {
	// AT and RAT are arrival and required times at cell outputs.
	AT, RAT []float64
	// WS is the worst endpoint slack; TNS the total negative slack over
	// endpoints (both in ps, negative = violation).
	WS, TNS float64
	// pinSlack[n][k] is the slack of net n's k-th sink pin.
	pinSlack [][]float64
}

// PinSlack returns the slack at net n's k-th sink pin.
func (r *Result) PinSlack(n, k int) float64 { return r.pinSlack[n][k] }

// Analyze runs forward/backward propagation with the given net delays
// and clock period.
func Analyze(nl *Netlist, delay NetDelayFn, clkPeriod float64) *Result {
	nc := len(nl.Cells)
	r := &Result{
		AT:  make([]float64, nc),
		RAT: make([]float64, nc),
	}
	order := make([]int32, nc)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		return nl.Cells[order[a]].Level < nl.Cells[order[b]].Level
	})

	// Forward: arrival at cell outputs. Arrival contributions come from
	// input nets; PI cells start at their own delay.
	arrIn := make([]float64, nc)
	for i := range arrIn {
		arrIn[i] = math.Inf(-1)
	}
	for ci, c := range nl.Cells {
		if c.PI {
			arrIn[ci] = 0
		}
	}
	// Process nets grouped by driver level so sink inputs accumulate in
	// topological order: iterate cells by level, finalize AT, then push
	// through their nets.
	netsByDriver := make([][]int32, nc)
	for ni, n := range nl.Nets {
		netsByDriver[n.Driver] = append(netsByDriver[n.Driver], int32(ni))
	}
	for _, ci := range order {
		in := arrIn[ci]
		if math.IsInf(in, -1) {
			in = 0 // undriven non-PI (validated against, but stay safe)
		}
		r.AT[ci] = in + nl.Cells[ci].Delay
		for _, ni := range netsByDriver[ci] {
			n := nl.Nets[ni]
			for k, s := range n.Sinks {
				at := r.AT[ci] + delay(int(ni), k)
				if at > arrIn[s] {
					arrIn[s] = at
				}
			}
		}
	}

	// Backward: required times at cell outputs, and the slack of every
	// sink pin, all nets' in one backing array. Sinks sit on strictly
	// higher levels than their drivers, so a sink's required time is final
	// before the reverse level order reaches its driver.
	for i := range r.RAT {
		r.RAT[i] = math.Inf(1)
	}
	for ci, c := range nl.Cells {
		if c.PO {
			r.RAT[ci] = clkPeriod
		}
	}
	pins := 0
	for _, n := range nl.Nets {
		pins += len(n.Sinks)
	}
	flat := make([]float64, pins)
	r.pinSlack = make([][]float64, len(nl.Nets))
	for ni, n := range nl.Nets {
		r.pinSlack[ni], flat = flat[:len(n.Sinks):len(n.Sinks)], flat[len(n.Sinks):]
	}
	for i := nc - 1; i >= 0; i-- {
		ci := order[i]
		for _, ni := range netsByDriver[ci] {
			n := nl.Nets[ni]
			for k, s := range n.Sinks {
				d := delay(int(ni), k)
				req := r.RAT[s] - nl.Cells[s].Delay
				r.pinSlack[ni][k] = req - (r.AT[ci] + d)
				if req-d < r.RAT[ci] {
					r.RAT[ci] = req - d
				}
			}
		}
	}

	// Endpoint metrics.
	r.WS = math.Inf(1)
	r.TNS = 0
	seen := false
	for ci, c := range nl.Cells {
		if !c.PO {
			continue
		}
		seen = true
		slack := r.RAT[ci] - r.AT[ci]
		if slack < r.WS {
			r.WS = slack
		}
		if slack < 0 {
			r.TNS += slack
		}
	}
	if !seen {
		r.WS = 0
	}
	return r
}

package nets

import "costdist/internal/geom"

// PinSig is the geometric signature of one net's terminals on the
// gcell plane: the driver position followed by the sink positions in
// pin order. It is the unit of instance diffing for warm-started
// routing — two nets with equal signatures present the router with the
// same cost-distance terminal set, so a cached tree for one embeds the
// other. Weights, budgets and congestion prices are deliberately
// outside the signature: those drift between runs and are invalidated
// by the dirty-net scheduler's tolerance checks, not by the diff.
type PinSig struct {
	Driver geom.Pt
	Sinks  []geom.Pt
}

// Equal reports whether two signatures describe the same terminal set:
// same driver position and the same sink positions in the same order.
// Order matters because per-sink state (weights, budgets, delays) is
// indexed by pin position in the net.
func (s PinSig) Equal(o PinSig) bool {
	if s.Driver != o.Driver || len(s.Sinks) != len(o.Sinks) {
		return false
	}
	for i, p := range s.Sinks {
		if p != o.Sinks[i] {
			return false
		}
	}
	return true
}

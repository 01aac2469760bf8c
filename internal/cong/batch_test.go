package cong

import (
	"math"
	"math/rand/v2"
	"testing"
)

// naiveStep is the pre-fast-path pricer formula, kept verbatim as the
// reference the optimized Update must match bitwise.
func naiveStep(p *Pricer, mult []float32, s int, use float32) {
	cap := p.G.Cap[s]
	var ratio float64
	if cap <= 0 {
		if use > 0 {
			ratio = 4
		} else {
			ratio = 0
		}
	} else {
		ratio = float64(use) / float64(cap)
	}
	m := float64(mult[s]) * math.Exp(p.Alpha*(ratio-p.Target))
	if m < 1 {
		m = 1
	}
	if m > maxMult {
		m = maxMult
	}
	mult[s] = float32(m)
}

// randomUsage fills u with a mix of idle, lightly loaded and overloaded
// segments — the fast path must trigger often but not always.
func randomUsage(rng *rand.Rand, u *Usage) {
	for s := range u.U {
		switch rng.IntN(4) {
		case 0:
			u.U[s] = 0
		case 1:
			u.U[s] = float32(rng.Float64()) // well under capacity
		default:
			u.U[s] = float32(rng.Float64() * 8) // around and above capacity
		}
	}
}

// TestPricerFastPathExact pins the fast path's bit-exactness: skipping
// the exponential for unpriced under-target segments must leave every
// multiplier bitwise identical to the plain formula, across waves where
// prices rise, saturate and decay.
func TestPricerFastPathExact(t *testing.T) {
	g := deltaGraph()
	rng := rand.New(rand.NewPCG(7, 11))
	p := NewPricer(g, 0.8, 0.9)
	naive := make([]float32, g.NumSegs())
	for i := range naive {
		naive[i] = 1
	}
	u := NewUsage(g)
	for wave := 0; wave < 12; wave++ {
		randomUsage(rng, u)
		p.Update(u)
		for s := range naive {
			naiveStep(p, naive, s, u.U[s])
		}
		for s := range naive {
			if p.Mult[s] != naive[s] {
				t.Fatalf("wave %d seg %d: fast-path mult %v, naive %v", wave, s, p.Mult[s], naive[s])
			}
		}
	}
}

// TestUpdateTrackedMatchesSequential is the batching equivalence
// property: the fused end-of-wave update (one pass pricing + drift
// tracking) must produce the same multipliers, the same changed-region
// rectangles in the same order, the same changed-segment counts and the
// same advanced reference as the sequential pair Pricer.Update then
// DeltaTracker.Update — per wave, across many waves, for positive and
// zero tolerances.
func TestUpdateTrackedMatchesSequential(t *testing.T) {
	for _, tol := range []float64{0.10, 0.0} {
		g := deltaGraph()
		rng := rand.New(rand.NewPCG(42, uint64(math.Float64bits(tol))))
		seqP := NewPricer(g, 0.8, 0.9)
		seqT := NewDeltaTracker(g, tol)
		fusedP := NewPricer(g, 0.8, 0.9)
		fusedT := NewDeltaTracker(g, tol)
		u := NewUsage(g)
		for wave := 0; wave < 10; wave++ {
			randomUsage(rng, u)

			seqP.Update(u)
			seqRects, seqSegs := seqT.Update(seqP.Mult)
			fusedRects, fusedSegs := fusedP.UpdateTracked(fusedT, u)

			if fusedSegs != seqSegs {
				t.Fatalf("tol %v wave %d: fused changed %d segs, sequential %d", tol, wave, fusedSegs, seqSegs)
			}
			if len(fusedRects) != len(seqRects) {
				t.Fatalf("tol %v wave %d: fused %d rects, sequential %d", tol, wave, len(fusedRects), len(seqRects))
			}
			for i := range seqRects {
				if fusedRects[i] != seqRects[i] {
					t.Fatalf("tol %v wave %d rect %d: fused %+v, sequential %+v", tol, wave, i, fusedRects[i], seqRects[i])
				}
			}
			for s := range seqP.Mult {
				if fusedP.Mult[s] != seqP.Mult[s] {
					t.Fatalf("tol %v wave %d seg %d: fused mult %v, sequential %v", tol, wave, s, fusedP.Mult[s], seqP.Mult[s])
				}
			}
			seqRef, fusedRef := seqT.Ref(), fusedT.Ref()
			for s := range seqRef {
				if fusedRef[s] != seqRef[s] {
					t.Fatalf("tol %v wave %d seg %d: fused ref %v, sequential %v", tol, wave, s, fusedRef[s], seqRef[s])
				}
			}
		}
	}
}

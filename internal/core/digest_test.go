package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"testing"

	"costdist/internal/geom"
	"costdist/internal/grid"
	"costdist/internal/nets"
	"costdist/internal/pins"
)

// solveDigestFile holds the sha256 of solveDigestCorpus. It pins Solve's
// exact trees and search work under every combination of the five §III
// option flags, which the route goldens (default options only) do not.
const solveDigestFile = "../../testdata/solve_digest.txt"

// digestOptionSets returns all 32 combinations of Discount, AStar,
// ImproveSteiner, RootBonus and FlatHeap, bit i of the index switching
// the i-th flag.
func digestOptionSets() []Options {
	sets := make([]Options, 32)
	for m := range sets {
		sets[m] = Options{
			Discount:       m&1 != 0,
			AStar:          m&2 != 0,
			ImproveSteiner: m&4 != 0,
			RootBonus:      m&8 != 0,
			FlatHeap:       m&16 != 0,
		}
	}
	return sets
}

// digestInstances is the seeded corpus: instances with and without a
// bifurcation penalty, sinks off layer 0, coincident sinks, a sink at the
// root, windows smaller than the chip, and a window whose segments carry
// congestion prices above 1.
func digestInstances() []*nets.Instance {
	g, c := newGraph(20, 20, 5)
	priced := grid.NewCosts(g)
	rng := rand.New(rand.NewPCG(43, 43))
	for s := range priced.Mult {
		if rng.IntN(3) == 0 {
			priced.Mult[s] = float32(1 + 7*rng.Float64())
		}
	}
	var out []*nets.Instance
	for it := 0; it < 32; it++ {
		costs := c
		if it%3 == 2 {
			costs = priced
		}
		dbif := 0.0
		if it%2 == 1 {
			dbif = 1 + 3*rng.Float64()
		}
		in := randInstance(rng, g, costs, 1+rng.IntN(18), dbif)
		for k := range in.Sinks {
			if rng.IntN(4) == 0 {
				x, y, _ := g.XYL(in.Sinks[k].V)
				in.Sinks[k].V = g.At(x, y, rng.Int32N(int32(len(g.Layers))))
			}
		}
		switch it % 4 {
		case 1: // coincident sinks
			in.Sinks = append(in.Sinks, nets.Sink{V: in.Sinks[0].V, W: 0.01}, nets.Sink{V: in.Sinks[len(in.Sinks)-1].V, W: 0.03})
		case 2: // a sink at the root
			in.Sinks = append(in.Sinks, nets.Sink{V: in.Root, W: 0.02})
		case 3: // a window around the terminals, one gcell of slack
			box := geom.Rect{}
			for k, p := range in.TermPts() {
				if k == 0 {
					box = ptRect(p)
				} else {
					box = box.Add(p)
				}
			}
			in.Win = geom.Rect{X0: max(box.X0-1, 0), Y0: max(box.Y0-1, 0), X1: min(box.X1+1, g.NX-1), Y1: min(box.Y1+1, g.NY-1)}
		}
		out = append(out, in)
	}
	return out
}

// solveDigestCorpus solves every corpus instance under every option set
// through one arena and hashes each tree's steps followed by the arena's
// cumulative Work counts.
func solveDigestCorpus(t *testing.T) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	scr := NewScratch()
	for _, in := range digestInstances() {
		for _, opt := range digestOptionSets() {
			opt.Scratch = scr
			tr, err := Solve(in, opt)
			if err != nil {
				t.Fatal(err)
			}
			put(int64(len(tr.Steps)))
			for _, st := range tr.Steps {
				put(int64(st.From))
				put(int64(st.Arc.To))
				put(int64(st.Arc.Seg))
				put(int64(st.Arc.L)<<16 | int64(st.Arc.WT)<<8 | int64(boolByte(st.Arc.Via)))
			}
			w := scr.Work
			put(w.Searches)
			put(w.Pushed)
			put(w.Settled)
			put(w.Estimated)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// TestSolveDigestAcrossOptions holds Solve's trees and work counts on a
// seeded corpus under all 32 option sets to solveDigestFile. A change meant
// to leave the search's behaviour alone must pass it unedited; one that
// changes what Solve returns regenerates it with
//
//	PINS_UPDATE=1 go test ./...
func TestSolveDigestAcrossOptions(t *testing.T) {
	got := solveDigestCorpus(t)
	if want := pins.File(t, solveDigestFile, []byte(got+"\n")); string(want) != got+"\n" {
		t.Fatalf("Solve digest = %s, want %s", got, want)
	}
}

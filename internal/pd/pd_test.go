package pd

import (
	"math/rand/v2"
	"testing"

	"costdist/internal/geom"
	"costdist/internal/nets"
	"costdist/internal/rsmt"
)

func randInstance(rng *rand.Rand, n int, span int32) ([]geom.Pt, []float64) {
	pts := make([]geom.Pt, n)
	w := make([]float64, n-1)
	for i := range pts {
		pts[i] = geom.Pt{X: rng.Int32N(span), Y: rng.Int32N(span)}
	}
	for i := range w {
		w[i] = 0.1 + rng.Float64()*5
	}
	return pts, w
}

func TestBuildValid(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 1))
	for _, n := range []int{2, 3, 5, 10, 30} {
		for _, alpha := range []float64{0, 0.3, 1} {
			for it := 0; it < 10; it++ {
				pts, w := randInstance(rng, n, 100)
				tr := Build(pts, w, Params{Alpha: alpha, LBif: 3, Eta: 0.25})
				if err := tr.Validate(n - 1); err != nil {
					t.Fatalf("n=%d alpha=%v: %v", n, alpha, err)
				}
			}
		}
	}
}

func TestAlphaZeroApproachesMSTLength(t *testing.T) {
	// α=0 is pure Prim with Steiner insertion: never longer than MST.
	rng := rand.New(rand.NewPCG(2, 9))
	for it := 0; it < 100; it++ {
		n := 3 + rng.IntN(12)
		pts, w := randInstance(rng, n, 64)
		tr := Build(pts, w, Params{Alpha: 0})
		if got, mst := tr.Length(), rsmt.MSTLength(pts); got > mst {
			t.Fatalf("alpha=0 length %d exceeds MST %d", got, mst)
		}
	}
}

// pathLen returns the L1 length of the tree path from node i to the root.
func pathLen(tr *nets.PlaneTree, i int32) int64 {
	var total int64
	for j := i; tr.Nodes[j].Parent >= 0; j = tr.Nodes[j].Parent {
		total += geom.L1(tr.Nodes[j].Pos, tr.Nodes[tr.Nodes[j].Parent].Pos)
	}
	return total
}

func TestAlphaOneGivesShortestPaths(t *testing.T) {
	// α=1 minimizes path lengths: every sink's path must equal its L1
	// distance from the root (star topology is always available).
	rng := rand.New(rand.NewPCG(3, 3))
	for it := 0; it < 50; it++ {
		n := 3 + rng.IntN(10)
		pts, w := randInstance(rng, n, 64)
		tr := Build(pts, w, Params{Alpha: 1})
		for i, node := range tr.Nodes {
			if node.SinkIdx >= 0 {
				want := geom.L1(pts[0], node.Pos)
				if got := pathLen(tr, int32(i)); got > want {
					t.Fatalf("alpha=1 path to sink %d is %d, L1 is %d", node.SinkIdx, got, want)
				}
			}
		}
	}
}

func TestAlphaTradeoffMonotone(t *testing.T) {
	// Larger α must not lengthen total wire while shortening paths on
	// average... the guaranteed direction is: total length is minimized
	// at α=0 among tested α (weakly).
	rng := rand.New(rand.NewPCG(6, 6))
	for it := 0; it < 30; it++ {
		n := 4 + rng.IntN(10)
		pts, w := randInstance(rng, n, 80)
		l0 := Build(pts, w, Params{Alpha: 0}).Length()
		l1 := Build(pts, w, Params{Alpha: 1}).Length()
		if l0 > l1 {
			t.Fatalf("alpha=0 longer than alpha=1: %d vs %d", l0, l1)
		}
	}
}

func TestSteinerInsertionHappens(t *testing.T) {
	// Root at origin, two sinks sharing a trunk: PD with Steiner
	// insertion should branch off the trunk, not route separately.
	pts := []geom.Pt{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 8, Y: 3}}
	w := []float64{1, 1}
	tr := Build(pts, w, Params{Alpha: 0.1})
	// Optimal-ish: trunk to (8,0) then split: total = 10 + 3 = 13.
	if tr.Length() > 13 {
		t.Fatalf("length %d, expected Steiner split at trunk (13)", tr.Length())
	}
	hasSteiner := false
	for _, n := range tr.Nodes {
		if n.SinkIdx < 0 && n.Parent >= 0 {
			hasSteiner = true
		}
	}
	if !hasSteiner {
		t.Fatal("no Steiner vertex inserted")
	}
}

func TestBifurcationPenaltySteersBranching(t *testing.T) {
	// With a huge penalty and η=0, branching wants the penalty on the
	// lighter side; the heavy critical sink's path should stay clean:
	// both topologies are trees but the heavy sink should be attached
	// closer to the root trunk.
	pts := []geom.Pt{{X: 0, Y: 0}, {X: 20, Y: 0}, {X: 10, Y: 1}}
	w := []float64{10, 0.1}
	with := Build(pts, w, Params{Alpha: 0.9, LBif: 50, Eta: 0})
	without := Build(pts, w, Params{Alpha: 0.9})
	if err := with.Validate(2); err != nil {
		t.Fatal(err)
	}
	if err := without.Validate(2); err != nil {
		t.Fatal(err)
	}
}

func TestTwoTerminals(t *testing.T) {
	pts := []geom.Pt{{X: 1, Y: 1}, {X: 4, Y: 5}}
	tr := Build(pts, []float64{2}, Params{Alpha: 0.5})
	if err := tr.Validate(1); err != nil {
		t.Fatal(err)
	}
	if tr.Length() != 7 {
		t.Fatalf("length %d want 7", tr.Length())
	}
}

func TestDuplicateAndCoincidentTerminals(t *testing.T) {
	pts := []geom.Pt{{X: 5, Y: 5}, {X: 5, Y: 5}, {X: 5, Y: 5}}
	tr := Build(pts, []float64{1, 2}, Params{Alpha: 0.5, LBif: 2, Eta: 0.25})
	if err := tr.Validate(2); err != nil {
		t.Fatal(err)
	}
	if tr.Length() != 0 {
		t.Fatalf("length %d want 0", tr.Length())
	}
}

func BenchmarkBuild32(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	pts, w := randInstance(rng, 32, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(pts, w, Params{Alpha: 0.3, LBif: 3, Eta: 0.25})
	}
}

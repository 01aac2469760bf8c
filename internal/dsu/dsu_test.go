package dsu

import (
	"math/rand/v2"
	"testing"
)

func TestSingletons(t *testing.T) {
	d := New(5)
	if d.Len() != 5 {
		t.Fatalf("Len = %d", d.Len())
	}
	for i := int32(0); i < 5; i++ {
		if d.Find(i) != i {
			t.Fatalf("Find(%d) = %d", i, d.Find(i))
		}
		if d.SetSize(i) != 1 {
			t.Fatalf("SetSize(%d) = %d", i, d.SetSize(i))
		}
	}
}

func TestUnionFind(t *testing.T) {
	d := New(6)
	d.Union(0, 1)
	d.Union(2, 3)
	if d.Find(0) == d.Find(2) {
		t.Fatal("0 and 2 should differ")
	}
	d.Union(1, 3)
	if d.Find(0) != d.Find(2) || d.Find(0) != d.Find(3) {
		t.Fatal("all of 0..3 should be joined")
	}
	if d.SetSize(0) != 4 {
		t.Fatalf("SetSize = %d want 4", d.SetSize(0))
	}
	if d.Find(4) == d.Find(5) {
		t.Fatal("4 and 5 must stay apart")
	}
}

func TestUnionReturnsRoot(t *testing.T) {
	d := New(4)
	r := d.Union(0, 1)
	if d.Find(0) != r || d.Find(1) != r {
		t.Fatal("Union root mismatch")
	}
	if got := d.Union(0, 1); got != r {
		t.Fatal("repeated Union should return existing root")
	}
}

func TestUnionInto(t *testing.T) {
	d := New(8)
	// Build a big set rooted anywhere, then force-merge into 7.
	d.Union(0, 1)
	d.Union(1, 2)
	d.Union(2, 3)
	d.UnionInto(7, 0)
	if d.Find(0) != 7 || d.Find(3) != 7 {
		t.Fatalf("UnionInto: root = %d want 7", d.Find(0))
	}
	d.UnionInto(7, 7) // no-op on same set
	if d.SetSize(7) != 5 {
		t.Fatalf("SetSize = %d want 5", d.SetSize(7))
	}
}

func TestGrow(t *testing.T) {
	d := New(2)
	first := d.Grow(3)
	if first != 2 || d.Len() != 5 {
		t.Fatalf("Grow: first=%d len=%d", first, d.Len())
	}
	for i := int32(2); i < 5; i++ {
		if d.Find(i) != i {
			t.Fatalf("grown element %d not singleton", i)
		}
	}
}

// TestAgainstNaive cross-checks random unions against a naive labeling.
func TestAgainstNaive(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewPCG(7, 9))
	d := New(n)
	label := make([]int, n)
	for i := range label {
		label[i] = i
	}
	relabel := func(from, to int) {
		for i := range label {
			if label[i] == from {
				label[i] = to
			}
		}
	}
	for it := 0; it < 500; it++ {
		a, b := int32(rng.IntN(n)), int32(rng.IntN(n))
		d.Union(a, b)
		relabel(label[a], label[b])
		x, y := int32(rng.IntN(n)), int32(rng.IntN(n))
		if same := d.Find(x) == d.Find(y); same != (label[x] == label[y]) {
			t.Fatalf("iteration %d: same set(%d,%d)=%v but labels %d,%d", it, x, y, same, label[x], label[y])
		}
	}
}

func TestReset(t *testing.T) {
	d := New(4)
	d.Union(0, 1)
	d.Union(2, 3)
	d.Grow(2)
	d.Union(4, 5)

	d.Reset(3)
	if d.Len() != 3 {
		t.Fatalf("Len after Reset = %d", d.Len())
	}
	for i := int32(0); i < 3; i++ {
		if d.Find(i) != i || d.SetSize(i) != 1 {
			t.Fatalf("element %d not singleton after Reset", i)
		}
	}
	d.UnionInto(2, 0)
	if d.Find(0) != 2 || d.SetSize(2) != 2 {
		t.Fatal("DSU unusable after Reset")
	}

	// Reset to a larger universe than ever seen.
	d.Reset(50)
	if d.Len() != 50 {
		t.Fatalf("Len = %d", d.Len())
	}
	for i := int32(0); i < 50; i++ {
		if d.Find(i) != i {
			t.Fatalf("element %d not singleton", i)
		}
	}
	rng := rand.New(rand.NewPCG(3, 5))
	for i := 0; i < 100; i++ {
		d.Union(int32(rng.IntN(50)), int32(rng.IntN(50)))
	}
	if d.SetSize(d.Find(0)) < 1 {
		t.Fatal("unexpected size")
	}
}

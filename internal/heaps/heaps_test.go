package heaps

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestLazyPopSorted(t *testing.T) {
	f := func(keys []float64) bool {
		var h Lazy[int]
		for i, k := range keys {
			h.Push(k, i)
		}
		prev := math.Inf(-1)
		for h.Len() > 0 {
			k, _ := h.Pop()
			if k < prev {
				return false
			}
			prev = k
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLazyValuesPreserved(t *testing.T) {
	var h Lazy[string]
	h.Push(3, "c")
	h.Push(1, "a")
	h.Push(2, "b")
	if h.MinKey() != 1 {
		t.Fatalf("MinKey = %v", h.MinKey())
	}
	var out []string
	for h.Len() > 0 {
		_, v := h.Pop()
		out = append(out, v)
	}
	if out[0] != "a" || out[1] != "b" || out[2] != "c" {
		t.Fatalf("pop order %v", out)
	}
}

func TestLazyReset(t *testing.T) {
	var h Lazy[int]
	h.Push(1, 1)
	h.Push(2, 2)
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("Reset did not empty heap")
	}
	h.Push(5, 5)
	if k, v := h.Pop(); k != 5 || v != 5 {
		t.Fatal("heap unusable after Reset")
	}
}

func TestIndexedBasics(t *testing.T) {
	h := NewIndexed(4)
	if s, k := h.Min(); s < 0 || k != Inf {
		t.Fatalf("initial Min = %d,%v", s, k)
	}
	h.Set(2, 5.0)
	h.Set(0, 7.0)
	h.Set(3, 1.0)
	if s, k := h.Min(); s != 3 || k != 1.0 {
		t.Fatalf("Min = %d,%v want 3,1", s, k)
	}
	h.Set(3, 9.0) // increase-key
	if s, k := h.Min(); s != 2 || k != 5.0 {
		t.Fatalf("Min after increase = %d,%v want 2,5", s, k)
	}
	h.Set(0, 0.5) // decrease-key
	if s, _ := h.Min(); s != 0 {
		t.Fatalf("Min after decrease = %d want 0", s)
	}
	if h.key[3] != 9.0 {
		t.Fatalf("key[3] = %v", h.key[3])
	}
}

func TestIndexedGrow(t *testing.T) {
	h := NewIndexed(2)
	h.Set(0, 3)
	h.Grow(2)
	if h.Len() != 4 {
		t.Fatalf("Len = %d", h.Len())
	}
	h.Set(3, 1)
	if s, k := h.Min(); s != 3 || k != 1 {
		t.Fatalf("Min = %d,%v", s, k)
	}
}

// TestIndexedAgainstReference drives random Set operations and verifies
// Min against a linear scan.
func TestIndexedAgainstReference(t *testing.T) {
	const n = 50
	rng := rand.New(rand.NewPCG(11, 13))
	h := NewIndexed(n)
	ref := make([]float64, n)
	for i := range ref {
		ref[i] = Inf
	}
	for it := 0; it < 2000; it++ {
		s := int32(rng.IntN(n))
		k := rng.Float64() * 100
		if rng.IntN(10) == 0 {
			k = Inf // deactivate
		}
		h.Set(s, k)
		ref[s] = k
		// reference min
		bestSlot, bestKey := int32(-1), Inf
		for i, rk := range ref {
			if rk < bestKey {
				bestKey, bestSlot = rk, int32(i)
			}
		}
		gotSlot, gotKey := h.Min()
		if bestSlot == -1 {
			if gotKey != Inf {
				t.Fatalf("it %d: expected Inf min", it)
			}
			continue
		}
		if gotKey != bestKey {
			t.Fatalf("it %d: Min key %v want %v (slot %d vs %d)", it, gotKey, bestKey, gotSlot, bestSlot)
		}
	}
}

// TestTwoLevelPattern exercises the exact two-level usage pattern from the
// cost-distance algorithm: per-search Lazy heaps + Indexed top heap of
// their minima must pop labels in globally sorted order.
func TestTwoLevelPattern(t *testing.T) {
	const searches = 8
	rng := rand.New(rand.NewPCG(3, 5))
	subs := make([]*Lazy[int], searches)
	var all []float64
	top := NewIndexed(searches)
	for i := range subs {
		subs[i] = &Lazy[int]{}
		for j := 0; j < 100; j++ {
			k := rng.Float64() * 1000
			subs[i].Push(k, j)
			all = append(all, k)
		}
		top.Set(int32(i), subs[i].MinKey())
	}
	sort.Float64s(all)
	for idx := 0; idx < len(all); idx++ {
		s, k := top.Min()
		if k != all[idx] {
			t.Fatalf("global pop %d: got %v want %v", idx, k, all[idx])
		}
		subs[s].Pop()
		if subs[s].Len() == 0 {
			top.Set(s, Inf)
		} else {
			top.Set(s, subs[s].MinKey())
		}
	}
	if _, k := top.Min(); k != Inf {
		t.Fatal("heaps should be exhausted")
	}
}

func BenchmarkLazyPushPop(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	var h Lazy[int32]
	for i := 0; i < b.N; i++ {
		h.Push(rng.Float64(), int32(i))
		if h.Len() > 1024 {
			h.Pop()
		}
	}
}

func BenchmarkIndexedSet(b *testing.B) {
	h := NewIndexed(256)
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Set(int32(i&255), rng.Float64())
	}
}

func TestIndexedReset(t *testing.T) {
	h := NewIndexed(8)
	for i := int32(0); i < 8; i++ {
		h.Set(i, float64(10-i))
	}
	h.Grow(4)
	h.Set(10, 0.5)

	// Shrink to a smaller universe and check it behaves like a fresh heap.
	h.Reset(3)
	if h.Len() != 3 {
		t.Fatalf("Len after Reset = %d", h.Len())
	}
	if _, k := h.Min(); k != Inf {
		t.Fatalf("Min after Reset = %v, want Inf", k)
	}
	h.Set(2, 7)
	h.Set(0, 9)
	if s, k := h.Min(); s != 2 || k != 7 {
		t.Fatalf("Min = %d,%v", s, k)
	}
	h.Grow(2)
	h.Set(4, 1)
	if s, k := h.Min(); s != 4 || k != 1 {
		t.Fatalf("Min after Grow = %d,%v", s, k)
	}

	// Reset to a larger universe than ever seen.
	h.Reset(20)
	if h.Len() != 20 {
		t.Fatalf("Len = %d", h.Len())
	}
	for i := int32(0); i < 20; i++ {
		if h.key[i] != Inf {
			t.Fatalf("slot %d kept key %v across Reset", i, h.key[i])
		}
	}
	h.Set(19, 2)
	if s, _ := h.Min(); s != 19 {
		t.Fatalf("Min = %d", s)
	}
}

// TestIndexedResetMatchesFresh drives a recycled heap and a fresh heap
// through an identical random schedule and requires identical behavior.
func TestIndexedResetMatchesFresh(t *testing.T) {
	recycled := NewIndexed(1)
	for round := 0; round < 30; round++ {
		rng := rand.New(rand.NewPCG(uint64(round), 99))
		n := 1 + rng.IntN(40)
		recycled.Reset(n)
		fresh := NewIndexed(n)
		for op := 0; op < 200; op++ {
			s := int32(rng.IntN(recycled.Len()))
			k := rng.Float64() * 100
			recycled.Set(s, k)
			fresh.Set(s, k)
			if rng.IntN(20) == 0 {
				recycled.Grow(1)
				fresh.Grow(1)
			}
			rs, rk := recycled.Min()
			fs, fk := fresh.Min()
			if rs != fs || rk != fk {
				t.Fatalf("round %d op %d: recycled Min=%d,%v fresh Min=%d,%v", round, op, rs, rk, fs, fk)
			}
		}
	}
}

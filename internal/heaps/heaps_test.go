package heaps

import (
	"container/heap"
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

// floatLazy is Lazy as it was before its keys became ord-encoded: the
// same sifts on float64 keys. It is the reference for Lazy's pop order.
type floatLazy[T any] struct {
	keys []float64
	vals []T
}

func (h *floatLazy[T]) Len() int { return len(h.keys) }

func (h *floatLazy[T]) Push(key float64, v T) {
	h.keys = append(h.keys, key)
	h.vals = append(h.vals, v)
	h.up(len(h.keys) - 1)
}

func (h *floatLazy[T]) Peek() (key float64, v T) { return h.keys[0], h.vals[0] }

func (h *floatLazy[T]) Pop() (key float64, v T) {
	key, v = h.keys[0], h.vals[0]
	n := len(h.keys) - 1
	h.keys[0], h.vals[0] = h.keys[n], h.vals[n]
	h.keys = h.keys[:n]
	h.vals = h.vals[:n]
	if n > 0 {
		h.down(0)
	}
	return key, v
}

func (h *floatLazy[T]) up(i int) {
	k, v := h.keys[i], h.vals[i]
	for i > 0 {
		p := (i - 1) / 2
		if h.keys[p] <= k {
			break
		}
		h.keys[i], h.vals[i] = h.keys[p], h.vals[p]
		i = p
	}
	h.keys[i], h.vals[i] = k, v
}

func (h *floatLazy[T]) down(i int) {
	n := len(h.keys)
	k, v := h.keys[i], h.vals[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.keys[c+1] < h.keys[c] {
			c++
		}
		if h.keys[c] >= k {
			break
		}
		h.keys[i], h.vals[i] = h.keys[c], h.vals[c]
		i = c
	}
	h.keys[i], h.vals[i] = k, v
}

// specialKeys are the float64 values an integer encoding of the key can
// get wrong: both zeros, both infinities, subnormals of both signs, the
// extremes of the finite range, and ordinary negatives and positives.
var specialKeys = []float64{
	math.Inf(-1), -math.MaxFloat64, -1e300, -2.5, -1, -math.SmallestNonzeroFloat64 * 3,
	-math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64,
	math.SmallestNonzeroFloat64 * 3, 0x1p-1022, 1, 2.5, 7, 1e300, math.MaxFloat64, math.Inf(1),
}

// Lazy pops the same (key, value) sequence as the float heap it
// replaced, ties included, on random interleavings of Push and Pop with
// keys drawn from a small set — the key a float heap returns, with −0
// read as +0. Values are push sequence numbers, so a tie popped in
// another order shows.
func TestLazyMatchesFloatHeap(t *testing.T) {
	for round := 0; round < 200; round++ {
		rng := rand.New(rand.NewPCG(uint64(round), 30))
		pool := specialKeys
		if round%2 == 1 {
			pool = []float64{0, 1, 1, 2, 3, 3, 3}
		}
		var h Lazy[int]
		var ref floatLazy[int]
		pushes := 0
		for op := 0; op < 2000; op++ {
			if ref.Len() == 0 || rng.IntN(5) < 3 {
				k := pool[rng.IntN(len(pool))]
				h.Push(k, pushes)
				ref.Push(k, pushes)
				pushes++
			} else {
				gk, gv := h.Pop()
				wk, wv := ref.Pop()
				if math.Float64bits(gk) != math.Float64bits(wk+0) || gv != wv {
					t.Fatalf("round %d op %d: Pop = (%v, %d), float heap (%v, %d)", round, op, gk, gv, wk, wv)
				}
			}
			if h.Len() != ref.Len() {
				t.Fatalf("round %d op %d: Len %d, float heap %d", round, op, h.Len(), ref.Len())
			}
			if h.Len() > 0 {
				gk, gv := h.Peek()
				wk, wv := ref.Peek()
				if math.Float64bits(gk) != math.Float64bits(wk+0) || gv != wv || h.MinKey() != gk {
					t.Fatalf("round %d op %d: Peek = (%v, %d), float heap (%v, %d)", round, op, gk, gv, wk, wv)
				}
			}
		}
	}
}

// ord is strictly monotone on non-NaN float64s (equal exactly where the
// floats compare equal, so −0 ties +0), and unord inverts it bit for
// bit except that −0 comes back as +0.
func TestOrdPreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 1))
	keys := append([]float64(nil), specialKeys...)
	for len(keys) < 400 {
		if k := math.Float64frombits(rng.Uint64()); !math.IsNaN(k) {
			keys = append(keys, k)
		}
	}
	for _, a := range keys {
		want := math.Float64bits(a)
		if a == 0 {
			want = 0
		}
		if got := math.Float64bits(unord(ord(a))); got != want {
			t.Fatalf("unord(ord(%v)) has bits %#x, want %#x", a, got, want)
		}
		for _, b := range keys {
			if (a < b) != (ord(a) < ord(b)) || (a == b) != (ord(a) == ord(b)) {
				t.Fatalf("ord(%v) = %#x and ord(%v) = %#x order differently from the floats", a, ord(a), b, ord(b))
			}
		}
	}
}

// byIndexRef is the reference for ByIndex: a container/heap of (key,
// index) entries ordered lexicographically, with heap.Fix for a
// decrease.
type byIndexRef struct {
	keys []float64
	idx  []int32
	pos  map[int32]int
}

func (r *byIndexRef) Len() int { return len(r.keys) }
func (r *byIndexRef) Less(a, b int) bool {
	return r.keys[a] < r.keys[b] || r.keys[a] == r.keys[b] && r.idx[a] < r.idx[b]
}
func (r *byIndexRef) Swap(a, b int) {
	r.keys[a], r.keys[b] = r.keys[b], r.keys[a]
	r.idx[a], r.idx[b] = r.idx[b], r.idx[a]
	r.pos[r.idx[a]], r.pos[r.idx[b]] = a, b
}
func (r *byIndexRef) Push(e any) {
	kv := e.([2]float64)
	r.pos[int32(kv[1])] = len(r.keys)
	r.keys = append(r.keys, kv[0])
	r.idx = append(r.idx, int32(kv[1]))
}
func (r *byIndexRef) Pop() any {
	n := len(r.keys) - 1
	e := [2]float64{r.keys[n], float64(r.idx[n])}
	delete(r.pos, r.idx[n])
	r.keys, r.idx = r.keys[:n], r.idx[:n]
	return e
}

// byIndexKeys are few and tie often: both zeros, subnormals, a negative,
// small positives and +Inf.
var byIndexKeys = []float64{-1, math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64,
	math.SmallestNonzeroFloat64 * 3, 1, 2.5, 7, math.Inf(1)}

// ByIndex pops what a container/heap ordered by (key, index) pops — key
// bits, with −0 read as +0, and index — on random streams of Insert,
// Decrease and Pop over a small universe with tie-heavy keys, one
// recycled heap across universes of different sizes. Equal keys pop in
// index order, so a heap that orders by key alone fails, and Decrease
// finds its entry through the position slice, so a sift that leaves one
// position stale fails.
func TestByIndexMatchesReference(t *testing.T) {
	var h ByIndex
	for round := 0; round < 300; round++ {
		rng := rand.New(rand.NewPCG(uint64(round), 45))
		n := 1 + rng.IntN(64)
		h.Reset(n)
		ref := &byIndexRef{pos: map[int32]int{}}
		for op := 0; op < 3000; op++ {
			i := int32(rng.IntN(n))
			_, in := ref.pos[i]
			switch r := rng.IntN(10); {
			case r < 4 && !in:
				k := byIndexKeys[rng.IntN(len(byIndexKeys))]
				h.Insert(k, i)
				heap.Push(ref, [2]float64{k, float64(i)})
			case r < 7 && in:
				cur := ref.keys[ref.pos[i]]
				k := byIndexKeys[rng.IntN(len(byIndexKeys))]
				for k > cur {
					k = byIndexKeys[rng.IntN(len(byIndexKeys))]
				}
				h.Decrease(k, i)
				ref.keys[ref.pos[i]] = k
				heap.Fix(ref, ref.pos[i])
			case ref.Len() > 0:
				gk, gi := h.Pop()
				w := heap.Pop(ref).([2]float64)
				if math.Float64bits(gk) != math.Float64bits(w[0]+0) || gi != int32(w[1]) {
					t.Fatalf("round %d op %d: Pop = (%v, %d), reference (%v, %d)", round, op, gk, gi, w[0], int32(w[1]))
				}
			}
			if h.Len() != ref.Len() {
				t.Fatalf("round %d op %d: Len %d, reference %d", round, op, h.Len(), ref.Len())
			}
		}
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

// BenchmarkLazyDijkstra drives the heap as a label-setting search does:
// every pop pushes a label at the popped key plus a small integral arc
// cost, so keys rise monotonically and tie often, on a heap of a few
// thousand entries like the embedding DP's spread.
func BenchmarkLazyDijkstra(b *testing.B) {
	const size = 4096
	rng := rand.New(rand.NewPCG(1, 1))
	var h Lazy[int32]
	for i := 0; i < size; i++ {
		h.Push(float64(rng.IntN(64)), int32(i))
	}
	steps := [...]float64{1, 1, 1.5, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, v := h.Pop()
		h.Push(k+steps[rng.IntN(len(steps))], v)
	}
}

// BenchmarkByIndexDijkstra is BenchmarkLazyDijkstra on ByIndex: each pop
// re-inserts the popped index at its key plus a small integral arc cost,
// on a heap of 4096 indices, one entry each.
func BenchmarkByIndexDijkstra(b *testing.B) {
	const size = 4096
	rng := rand.New(rand.NewPCG(1, 1))
	var h ByIndex
	h.Reset(size)
	for i := int32(0); i < size; i++ {
		h.Insert(float64(rng.IntN(64)), i)
	}
	steps := [...]float64{1, 1, 1.5, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, v := h.Pop()
		h.Insert(k+steps[rng.IntN(len(steps))], v)
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

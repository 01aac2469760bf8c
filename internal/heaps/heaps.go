// Package heaps provides the priority queues used by the path searches:
//
//   - Lazy[T]: a plain binary min-heap with lazy deletion semantics. Each
//     per-sink Dijkstra search of the cost-distance core and of the exact
//     tier owns one (the paper uses binary heaps because global routing
//     graphs have m ∈ O(n), §III-B).
//   - ByIndex: a binary min-heap over the indices [0, n) with one entry per
//     index and decrease-key, ordered by (key, index). The embedding DP's
//     spread queues window cells in it, so equal labels settle in index
//     order whatever the order of the pushes.
//   - Indexed: a binary min-heap over a fixed slot universe with
//     decrease/increase-key, used as the top level of the two-level heap
//     structure from §III-B: it stores the minimum key of every sink heap
//     so the globally minimal tentative label can be popped.
package heaps

import (
	"math"
	"math/bits"
)

// Lazy is a binary min-heap of (key, value) pairs. Duplicate values with
// stale keys are allowed; callers detect staleness when popping (lazy
// deletion). Whether that beats decrease-key was measured, not assumed:
// in the embedding spread, ByIndex (one entry per cell, decrease-key)
// cut pops on BenchmarkECO/warm+repair from 4.70 M to 2.83 M and
// BenchmarkRepair from 1.62 to 1.12 ms. In the cost-distance core's
// queues 21 % of pops on cold c1@0.01 are stale (ROADMAP probe C); the
// choice there is open (ROADMAP item 11(c)). The zero value is ready to
// use.
//
// Keys are stored as ord(key), a uint64 that sorts like the float64, so
// the sifts compare integers; they make exactly the comparisons a float
// heap would and pop equal keys in the same order. A key must not be NaN,
// and a pushed −0 comes back as +0.
type Lazy[T any] struct {
	keys []uint64
	vals []T
}

// ord maps a float64 to a uint64 of the same order: a negative key has
// all its bits flipped, any other key only its sign bit. Adding +0 first
// folds −0 into +0, so the two zeros tie as they do under float
// comparison.
func ord(k float64) uint64 {
	b := math.Float64bits(k + 0)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// unord inverts ord.
func unord(u uint64) float64 {
	return math.Float64frombits(u ^ (uint64(int64(^u)>>63) | 1<<63))
}

// Len returns the number of stored entries (including stale duplicates).
func (h *Lazy[T]) Len() int { return len(h.keys) }

// Cap returns the number of entries the heap holds without growing.
func (h *Lazy[T]) Cap() int { return cap(h.keys) }

// Reset empties the heap, retaining capacity.
func (h *Lazy[T]) Reset() {
	h.keys = h.keys[:0]
	h.vals = h.vals[:0]
}

// Push inserts value v with the given key, which must not be NaN.
func (h *Lazy[T]) Push(key float64, v T) {
	h.keys = append(h.keys, ord(key))
	h.vals = append(h.vals, v)
	h.up(len(h.keys) - 1)
}

// MinKey returns the smallest key. It panics if the heap is empty; guard
// with Len.
func (h *Lazy[T]) MinKey() float64 { return unord(h.keys[0]) }

// Peek returns the minimum entry without removing it. It panics if the
// heap is empty; guard with Len.
func (h *Lazy[T]) Peek() (key float64, v T) { return unord(h.keys[0]), h.vals[0] }

// Pop removes and returns the entry with the smallest key.
func (h *Lazy[T]) Pop() (key float64, v T) {
	key, v = unord(h.keys[0]), h.vals[0]
	n := len(h.keys) - 1
	h.keys[0], h.vals[0] = h.keys[n], h.vals[n]
	h.keys = h.keys[:n]
	h.vals = h.vals[:n]
	if n > 0 {
		h.down(0)
	}
	return key, v
}

func (h *Lazy[T]) up(i int) {
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

// down sifts entry i toward the leaves. While both children exist, the
// right one is picked from the borrow of keys[c+1] − keys[c] — 1 exactly
// when it is strictly smaller — which compiles to a subtract-with-borrow
// instead of a branch the key order makes unpredictable; the one-child
// tail is settled once after the loop.
func (h *Lazy[T]) down(i int) {
	keys, vals := h.keys, h.vals[:len(h.keys)]
	n := len(keys)
	k, v := keys[i], vals[i]
	for {
		c := 2*i + 1
		if c+1 >= n {
			break
		}
		_, right := bits.Sub64(keys[c+1], keys[c], 0)
		c += int(right)
		if keys[c] >= k {
			break
		}
		keys[i], vals[i] = keys[c], vals[c]
		i = c
	}
	if c := 2*i + 1; c == n-1 && keys[c] < k {
		keys[i], vals[i] = keys[c], vals[c]
		i = c
	}
	keys[i], vals[i] = k, v
}

// ByIndex is a binary min-heap over the indices [0, n) that holds each
// index at most once. Entries are ordered by (key, index), compared
// lexicographically, so the pop order is a function of the entries alone,
// not of the order of the calls that put them there. Keys are stored as
// ord(key), as in Lazy; a key must not be NaN, and −0 comes back as +0.
// The zero value is ready after Reset.
type ByIndex struct {
	keys []uint64 // heap order
	idx  []int32  // heap order
	// pos[i] is the heap slot of index i. It is read only for indices in
	// the heap, so Reset never clears it.
	pos []int32
}

// Reset empties the heap and readies it for indices in [0, n), retaining
// capacity.
func (h *ByIndex) Reset(n int) {
	h.keys, h.idx = h.keys[:0], h.idx[:0]
	if len(h.pos) < n {
		h.pos = make([]int32, n)
	}
}

// Len returns the number of indices in the heap.
func (h *ByIndex) Len() int { return len(h.keys) }

// Insert adds index i, which must not be in the heap, with the given key.
func (h *ByIndex) Insert(key float64, i int32) {
	k := ord(key)
	h.keys = append(h.keys, k)
	h.idx = append(h.idx, i)
	h.up(len(h.keys)-1, k, i)
}

// Decrease lowers the key of index i, which must be in the heap, to key,
// which must not be above its current key.
func (h *ByIndex) Decrease(key float64, i int32) {
	h.up(int(h.pos[i]), ord(key), i)
}

// Pop removes and returns the entry with the smallest (key, index).
func (h *ByIndex) Pop() (key float64, i int32) {
	key, i = unord(h.keys[0]), h.idx[0]
	n := len(h.keys) - 1
	k, v := h.keys[n], h.idx[n]
	h.keys, h.idx = h.keys[:n], h.idx[:n]
	if n > 0 {
		h.down(k, v)
	}
	return key, i
}

// before is 1 when (ka, ia) precedes (kb, ib) and 0 otherwise: the
// borrow of ia − ib, fed into ka − kb, borrows out exactly when ka < kb,
// or ka == kb and ia < ib. It compiles to two subtract-with-borrows, no
// branch. Indices are non-negative, so their uint64 images keep their
// order.
func before(ka uint64, ia int32, kb uint64, ib int32) uint64 {
	_, b := bits.Sub64(uint64(ia), uint64(ib), 0)
	_, lt := bits.Sub64(ka, kb, b)
	return lt
}

// up places entry (k, v) at slot j or above it, moving the parents it
// precedes one level down.
func (h *ByIndex) up(j int, k uint64, v int32) {
	keys, idx, pos := h.keys, h.idx[:len(h.keys)], h.pos
	for j > 0 {
		p := (j - 1) / 2
		if before(k, v, keys[p], idx[p]) == 0 {
			break
		}
		keys[j], idx[j] = keys[p], idx[p]
		pos[idx[j]] = int32(j)
		j = p
	}
	keys[j], idx[j] = k, v
	pos[v] = int32(j)
}

// down places entry (k, v) at the root or below it. The smaller child is
// picked from before's borrow instead of a branch the key order makes
// unpredictable; the one-child tail is settled once after the loop.
func (h *ByIndex) down(k uint64, v int32) {
	keys, idx, pos := h.keys, h.idx[:len(h.keys)], h.pos
	n, j := len(keys), 0
	for {
		c := 2*j + 1
		if c+1 >= n {
			break
		}
		c += int(before(keys[c+1], idx[c+1], keys[c], idx[c]))
		if before(keys[c], idx[c], k, v) == 0 {
			break
		}
		keys[j], idx[j] = keys[c], idx[c]
		pos[idx[j]] = int32(j)
		j = c
	}
	if c := 2*j + 1; c == n-1 && before(keys[c], idx[c], k, v) != 0 {
		keys[j], idx[j] = keys[c], idx[c]
		pos[idx[j]] = int32(j)
		j = c
	}
	keys[j], idx[j] = k, v
	pos[v] = int32(j)
}

// Inf is the key used by Indexed for inactive slots.
const Inf = 1e300

// Indexed is a binary min-heap over a fixed universe of integer slots.
// Every slot always has a key (Inf when inactive); Set changes a slot's
// key in O(log n). It backs the top level of the two-level heap: slot =
// component id, key = minimum label of that component's search heap.
type Indexed struct {
	key  []float64
	heap []int32 // heap of slots
	pos  []int32 // slot -> index in heap, -1 if absent
}

// NewIndexed returns an Indexed heap with n slots, all at key Inf.
func NewIndexed(n int) *Indexed {
	h := &Indexed{
		key:  make([]float64, n),
		heap: make([]int32, n),
		pos:  make([]int32, n),
	}
	for i := 0; i < n; i++ {
		h.key[i] = Inf
		h.heap[i] = int32(i)
		h.pos[i] = int32(i)
	}
	return h
}

// Reset reinitializes the heap to n slots, all at key Inf, retaining
// the backing storage of previous, larger universes. It lets one Indexed
// heap be recycled across solver calls (core.Scratch).
func (h *Indexed) Reset(n int) {
	// The three backing slices grow through independent appends, so
	// their capacities may differ; check each.
	if cap(h.key) < n {
		h.key = make([]float64, n)
	} else {
		h.key = h.key[:n]
	}
	if cap(h.heap) < n {
		h.heap = make([]int32, n)
	} else {
		h.heap = h.heap[:n]
	}
	if cap(h.pos) < n {
		h.pos = make([]int32, n)
	} else {
		h.pos = h.pos[:n]
	}
	for i := 0; i < n; i++ {
		h.key[i] = Inf
		h.heap[i] = int32(i)
		h.pos[i] = int32(i)
	}
}

// Grow adds k new slots at key Inf.
func (h *Indexed) Grow(k int) {
	for i := 0; i < k; i++ {
		slot := int32(len(h.key))
		h.key = append(h.key, Inf)
		h.pos = append(h.pos, int32(len(h.heap)))
		h.heap = append(h.heap, slot)
		h.up(len(h.heap) - 1)
	}
}

// Len returns the number of slots.
func (h *Indexed) Len() int { return len(h.key) }

// Set assigns key k to slot s, restoring heap order.
func (h *Indexed) Set(s int32, k float64) {
	old := h.key[s]
	h.key[s] = k
	i := int(h.pos[s])
	switch {
	case k < old:
		h.up(i)
	case k > old:
		h.down(i)
	}
}

// Min returns the slot with the smallest key and that key. When all slots
// are inactive the returned key is Inf.
func (h *Indexed) Min() (slot int32, key float64) {
	if len(h.heap) == 0 {
		return -1, Inf
	}
	s := h.heap[0]
	return s, h.key[s]
}

func (h *Indexed) up(i int) {
	s := h.heap[i]
	k := h.key[s]
	for i > 0 {
		p := (i - 1) / 2
		ps := h.heap[p]
		if h.key[ps] <= k {
			break
		}
		h.heap[i] = ps
		h.pos[ps] = int32(i)
		i = p
	}
	h.heap[i] = s
	h.pos[s] = int32(i)
}

func (h *Indexed) down(i int) {
	n := len(h.heap)
	s := h.heap[i]
	k := h.key[s]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.key[h.heap[c+1]] < h.key[h.heap[c]] {
			c++
		}
		cs := h.heap[c]
		if h.key[cs] >= k {
			break
		}
		h.heap[i] = cs
		h.pos[cs] = int32(i)
		i = c
	}
	h.heap[i] = s
	h.pos[s] = int32(i)
}

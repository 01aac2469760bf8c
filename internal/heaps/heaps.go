// Package heaps provides the priority queues used by the path searches:
//
//   - Lazy[T]: a plain binary min-heap with lazy deletion semantics. Each
//     per-sink Dijkstra search owns one (the paper uses binary heaps because
//     global routing graphs have m ∈ O(n), §III-B).
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
// deletion), which is faster in practice than decrease-key for Dijkstra.
// The zero value is ready to use.
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

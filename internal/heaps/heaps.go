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

// Lazy is a binary min-heap of (key, value) pairs. Duplicate values with
// stale keys are allowed; callers detect staleness when popping (lazy
// deletion), which is faster in practice than decrease-key for Dijkstra.
// The zero value is ready to use.
type Lazy[T any] struct {
	keys []float64
	vals []T
}

// Len returns the number of stored entries (including stale duplicates).
func (h *Lazy[T]) Len() int { return len(h.keys) }

// Reset empties the heap, retaining capacity.
func (h *Lazy[T]) Reset() {
	h.keys = h.keys[:0]
	h.vals = h.vals[:0]
}

// Push inserts value v with the given key.
func (h *Lazy[T]) Push(key float64, v T) {
	h.keys = append(h.keys, key)
	h.vals = append(h.vals, v)
	h.up(len(h.keys) - 1)
}

// MinKey returns the smallest key. It panics if the heap is empty; guard
// with Len.
func (h *Lazy[T]) MinKey() float64 { return h.keys[0] }

// Peek returns the minimum entry without removing it. It panics if the
// heap is empty; guard with Len.
func (h *Lazy[T]) Peek() (key float64, v T) { return h.keys[0], h.vals[0] }

// Pop removes and returns the entry with the smallest key.
func (h *Lazy[T]) Pop() (key float64, v T) {
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

func (h *Lazy[T]) down(i int) {
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

// LabelQueue is the priority queue of the goal-oriented exact solver
// (internal/exact): a binary min-heap of (key, label-id) pairs with a
// deterministic tie-break on the label id. Lazy[T] pops equal keys in
// an order that depends on the interleaving of pushes and pops; the
// exact tier promises bit-identical trees across runs, so ties must
// resolve by something stable — the label id, which is a creation
// sequence number. Lower ids (earlier labels) win ties.
// The zero value is ready to use.
type LabelQueue struct {
	keys []float64
	ids  []int32
}

// Len returns the number of stored entries.
func (h *LabelQueue) Len() int { return len(h.keys) }

// Reset empties the queue, retaining capacity.
func (h *LabelQueue) Reset() {
	h.keys = h.keys[:0]
	h.ids = h.ids[:0]
}

// Push inserts label id with the given key.
func (h *LabelQueue) Push(key float64, id int32) {
	h.keys = append(h.keys, key)
	h.ids = append(h.ids, id)
	h.lqUp(len(h.keys) - 1)
}

// Pop removes and returns the entry with the smallest (key, id) pair.
func (h *LabelQueue) Pop() (key float64, id int32) {
	key, id = h.keys[0], h.ids[0]
	n := len(h.keys) - 1
	h.keys[0], h.ids[0] = h.keys[n], h.ids[n]
	h.keys = h.keys[:n]
	h.ids = h.ids[:n]
	if n > 0 {
		h.lqDown(0)
	}
	return key, id
}

// lqLess orders entries by key, then by id (deterministic ties).
func (h *LabelQueue) lqLess(ka float64, ia int32, kb float64, ib int32) bool {
	if ka != kb {
		return ka < kb
	}
	return ia < ib
}

func (h *LabelQueue) lqUp(i int) {
	k, id := h.keys[i], h.ids[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.lqLess(k, id, h.keys[p], h.ids[p]) {
			break
		}
		h.keys[i], h.ids[i] = h.keys[p], h.ids[p]
		i = p
	}
	h.keys[i], h.ids[i] = k, id
}

func (h *LabelQueue) lqDown(i int) {
	n := len(h.keys)
	k, id := h.keys[i], h.ids[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.lqLess(h.keys[c+1], h.ids[c+1], h.keys[c], h.ids[c]) {
			c++
		}
		if !h.lqLess(h.keys[c], h.ids[c], k, id) {
			break
		}
		h.keys[i], h.ids[i] = h.keys[c], h.ids[c]
		i = c
	}
	h.keys[i], h.ids[i] = k, id
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

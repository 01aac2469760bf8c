package sparse

import (
	"math/rand/v2"
	"testing"
	"unsafe"
)

// fields returns l without its slot stamp: what a reference map keeps.
func fields(l Label) Label {
	l.stamp = 0
	return l
}

// assign writes v's fields into the slot l, keeping the slot's stamp.
func assign(l *Label, v Label) { l.Dist, l.Code, l.Perm = v.Dist, v.Code, v.Perm }

// checkSlab compares every observable of s over the universe [0, n)
// with the reference.
func checkSlab(t *testing.T, what string, s *LabelSlab, ref map[int32]Label, n int) {
	t.Helper()
	if s.Len() != len(ref) {
		t.Fatalf("%s: Len %d vs ref %d", what, s.Len(), len(ref))
	}
	for i := int32(0); i < int32(n); i++ {
		want, ok := ref[i]
		got := s.Get(i)
		if ok != (got != nil) {
			t.Fatalf("%s: Get(%d) presence %v, ref %v", what, i, got != nil, ok)
		}
		if ok && fields(*got) != want {
			t.Fatalf("%s: Get(%d) %+v, ref %+v", what, i, *got, want)
		}
	}
}

func randLabel(rng *rand.Rand) Label {
	return Label{Dist: rng.Float64(), Code: uint8(rng.IntN(256)), Perm: rng.IntN(3) == 0}
}

func TestPutGet(t *testing.T) {
	var pool PagePool
	var s LabelSlab
	s.Reset(&pool, 1000)
	if s.Get(7) != nil || s.Get(999) != nil {
		t.Fatal("Get on empty slab should be nil")
	}
	l, existed := s.Put(7)
	if existed || fields(*l) != (Label{}) {
		t.Fatalf("fresh Put: existed=%v lab=%+v", existed, *l)
	}
	l.Dist, l.Code = 3.5, 9
	got := s.Get(7)
	if got == nil || got.Dist != 3.5 || got.Code != 9 {
		t.Fatalf("Get returned %+v", got)
	}
	l2, existed := s.Put(7)
	if !existed || l2.Dist != 3.5 {
		t.Fatalf("second Put: existed=%v lab=%+v", existed, l2)
	}
	if s.Get(8) != nil {
		t.Fatal("neighbour slot of the same page reads as present")
	}
	if s.Len() != 1 || pool.Peak() != 1 {
		t.Fatalf("Len = %d, pages = %d", s.Len(), pool.Peak())
	}
}

// TestGrowthPreservesEntries fills a slab across many pages: taking a
// new page must neither lose earlier labels nor invent neighbours.
func TestGrowthPreservesEntries(t *testing.T) {
	var pool PagePool
	var s LabelSlab
	const n = 10000
	s.Reset(&pool, 3*n)
	for i := int32(0); i < n; i++ {
		l, _ := s.Put(i * 3)
		l.Dist = float64(i)
	}
	if s.Len() != n {
		t.Fatalf("Len = %d want %d", s.Len(), n)
	}
	for i := int32(0); i < n; i++ {
		l := s.Get(i * 3)
		if l == nil || l.Dist != float64(i) {
			t.Fatalf("lost key %d: %+v", i*3, l)
		}
		if s.Get(i*3+1) != nil {
			t.Fatalf("phantom key %d", i*3+1)
		}
	}
}

func TestAgainstBuiltinMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	var pool PagePool
	var s LabelSlab
	s.Reset(&pool, 5000)
	ref := map[int32]float64{}
	for it := 0; it < 50000; it++ {
		k := int32(rng.IntN(5000))
		if rng.IntN(2) == 0 {
			l, _ := s.Put(k)
			l.Dist = float64(it)
			ref[k] = float64(it)
		} else {
			got := s.Get(k)
			want, ok := ref[k]
			if ok != (got != nil) {
				t.Fatalf("presence mismatch for %d", k)
			}
			if ok && got.Dist != want {
				t.Fatalf("value mismatch for %d: %v vs %v", k, got.Dist, want)
			}
		}
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len %d vs ref %d", s.Len(), len(ref))
	}
}

func TestReset(t *testing.T) {
	var pool PagePool
	var s LabelSlab
	s.Reset(&pool, 50)
	for i := int32(0); i < 50; i++ {
		s.Put(i)
	}
	s.Reset(&pool, 50)
	if s.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	for i := int32(0); i < 50; i++ {
		if s.Get(i) != nil {
			t.Fatalf("key %d survived Reset", i)
		}
	}
	l, existed := s.Put(3)
	if existed || l == nil {
		t.Fatal("slab unusable after Reset")
	}
}

// TestGrowAfterResetDropsStale: pages taken after a Reset come back from
// the pool full of an earlier generation's labels and must not
// resurrect any of them.
func TestGrowAfterResetDropsStale(t *testing.T) {
	var pool PagePool
	var s LabelSlab
	s.Reset(&pool, 10000)
	for i := int32(0); i < 10000; i++ {
		l, _ := s.Put(i)
		l.Dist = -1
	}
	s.Reset(&pool, 10000)
	for i := int32(0); i < 5000; i++ {
		l, existed := s.Put(i * 2)
		if existed {
			t.Fatalf("stale even key %d reported as existing", i*2)
		}
		l.Dist = float64(i)
	}
	if s.Len() != 5000 {
		t.Fatalf("Len = %d want 5000", s.Len())
	}
	for i := int32(0); i < 5000; i++ {
		if l := s.Get(2*i + 1); l != nil {
			t.Fatalf("stale odd key %d resurrected: %+v", 2*i+1, l)
		}
		if l := s.Get(i * 2); l == nil || l.Dist != float64(i) {
			t.Fatalf("key %d wrong after reset: %+v", i*2, l)
		}
	}
}

func TestResetReuseMatchesBuiltin(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 7))
	var pool PagePool
	var s LabelSlab
	for round := 0; round < 40; round++ {
		n := 300 + rng.IntN(3000)
		s.Reset(&pool, n)
		ref := map[int32]Label{}
		for it := 0; it < 500; it++ {
			k := int32(rng.IntN(n))
			l, _ := s.Put(k)
			l.Dist = float64(round*1000 + it)
			ref[k] = fields(*l)
		}
		checkSlab(t, "reused slab", &s, ref, n)
	}
}

// TestLabelSlabVsMap drives a LabelSlab and a built-in map with
// identical random operation sequences and compares every observable
// result. Even epochs use a small universe that is touched all over, odd
// ones a universe of thousands of pages with the keys in three narrow
// clusters, so most pages must never be taken from the pool.
func TestLabelSlabVsMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	var pool PagePool
	var slab LabelSlab
	for epoch := 0; epoch < 20; epoch++ {
		n := 16 + rng.IntN(200)
		key := func() int32 { return int32(rng.IntN(n)) }
		if epoch%2 == 1 {
			n = 1000*PageSlots + rng.IntN(3000*PageSlots)
			var base [3]int
			for i := range base {
				base[i] = rng.IntN(n - 2*PageSlots)
			}
			key = func() int32 { return int32(base[rng.IntN(3)] + rng.IntN(2*PageSlots)) }
		}
		slab.Reset(&pool, n)
		m := map[int32]Label{}
		for op := 0; op < 500; op++ {
			k := key()
			ml, mExisted := m[k]
			if rng.Float64() < 0.5 {
				sl := slab.Get(k)
				if (sl != nil) != mExisted {
					t.Fatalf("epoch %d: Get(%d) presence %v vs %v", epoch, k, sl != nil, mExisted)
				}
				if sl != nil && fields(*sl) != ml {
					t.Fatalf("epoch %d: Get(%d) %+v vs %+v", epoch, k, *sl, ml)
				}
				continue
			}
			sl, sExisted := slab.Put(k)
			if sExisted != mExisted {
				t.Fatalf("epoch %d: Put(%d) existed %v vs %v", epoch, k, sExisted, mExisted)
			}
			if fields(*sl) != ml {
				t.Fatalf("epoch %d: Put(%d) %+v vs %+v", epoch, k, *sl, ml)
			}
			assign(sl, randLabel(rng))
			m[k] = fields(*sl)
			if slab.Len() != len(m) {
				t.Fatalf("epoch %d: Len %d vs %d", epoch, slab.Len(), len(m))
			}
		}
		if epoch%2 == 1 {
			checkSlab(t, "clustered epoch", &slab, m, n)
		}
	}
	// Three clusters of two pages' width straddle at most nine pages.
	if pool.Peak() > 9 {
		t.Fatalf("pool handed out %d pages at once for clustered keys, want at most 9", pool.Peak())
	}
}

// TestLabelSlabResetIsolation checks labels from one epoch never leak
// into the next, including across a shrink+grow of the universe.
func TestLabelSlabResetIsolation(t *testing.T) {
	var pool PagePool
	var s LabelSlab
	s.Reset(&pool, 1000)
	for i := int32(0); i < 1000; i++ {
		l, _ := s.Put(i)
		l.Dist = float64(i)
	}
	s.Reset(&pool, 10)
	for i := int32(0); i < 10; i++ {
		if s.Get(i) != nil {
			t.Fatalf("leak at %d after shrink reset", i)
		}
	}
	s.Reset(&pool, 1500)
	if s.Len() != 0 {
		t.Fatalf("Len=%d after grow reset", s.Len())
	}
	for i := int32(0); i < 1500; i++ {
		if s.Get(i) != nil {
			t.Fatalf("leak at %d after grow reset", i)
		}
	}
}

// TestLabelSlabSharedPoolIsolation interleaves Puts of two slabs on one
// pool, then releases one and lets the other take over its pages: no
// label may cross from one slab to the other.
func TestLabelSlabSharedPoolIsolation(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	const n = 40 * PageSlots
	var pool PagePool
	var a, b LabelSlab
	for round := 0; round < 10; round++ {
		a.Reset(&pool, n)
		b.Reset(&pool, n)
		refA, refB := map[int32]Label{}, map[int32]Label{}
		put := func(s *LabelSlab, ref map[int32]Label, k int32) {
			l, existed := s.Put(k)
			if _, want := ref[k]; existed != want {
				t.Fatalf("round %d: Put(%d) existed %v, ref %v", round, k, existed, want)
			}
			assign(l, randLabel(rng))
			ref[k] = fields(*l)
		}
		// Both slabs label the lower half of the universe.
		for op := 0; op < 2000; op++ {
			k := int32(rng.IntN(n / 2))
			if rng.IntN(2) == 0 {
				put(&a, refA, k)
			} else {
				put(&b, refB, k)
			}
		}
		checkSlab(t, "a beside b", &a, refA, n)
		checkSlab(t, "b beside a", &b, refB, n)
		held := pool.Peak()
		// b retires; a spreads into the upper half on b's pages.
		b.Release()
		for op := 0; op < 2000; op++ {
			put(&a, refA, int32(n/2+rng.IntN(n/2)))
		}
		checkSlab(t, "a on b's pages", &a, refA, n)
		if pool.Peak() != held {
			t.Fatalf("round %d: peak pages %d → %d, a did not reuse b's pages", round, held, pool.Peak())
		}
	}
}

// TestFlatI32VsBuiltinMap drives a FlatI32 and a built-in map with
// identical random operations and compares every result, over universes
// that shrink and grow between Resets (TestStampWrap steps the same
// operations over the stamp counter's wrap).
func TestFlatI32VsBuiltinMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	var flat FlatI32
	for epoch := 0; epoch < 20; epoch++ {
		n := 16 + rng.IntN(300)
		flat.Reset(n)
		m := map[int32]int32{}
		for op := 0; op < 600; op++ {
			k := int32(rng.IntN(n))
			mv, mok := m[k]
			v := int32(rng.IntN(1000))
			switch rng.IntN(3) {
			case 0:
				fv, fok := flat.Get(k)
				if fok != mok || (fok && fv != mv) {
					t.Fatalf("epoch %d: Get(%d) (%d,%v) vs (%d,%v)", epoch, k, fv, fok, mv, mok)
				}
			case 1:
				flat.Put(k, v)
				m[k] = v
			default:
				if !mok {
					m[k] = v
				}
				if got := flat.PutIfAbsent(k, v); got != !mok {
					t.Fatalf("epoch %d: PutIfAbsent(%d) %v vs %v", epoch, k, got, !mok)
				}
			}
			if flat.Len() != len(m) {
				t.Fatalf("epoch %d: Len %d vs %d", epoch, flat.Len(), len(m))
			}
		}
	}
}

// TestLabelSlotIs16Bytes: the slot's generation stamp rides in the
// label's padding. As a separate entry beside the label it made a slot
// 24 B and a page 6 KB; every settle and relaxation of a component
// search touches one, so a field added here is paid on the hot path.
func TestLabelSlotIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Label{}); n != 16 {
		t.Fatalf("sparse.Label is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(labelPage{}); n != 4096 {
		t.Fatalf("a label page is %d bytes, want 4096", n)
	}
}

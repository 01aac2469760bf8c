package core

import (
	"math/rand/v2"

	"costdist/internal/sparse"
)

// Scratch is a reusable solver arena. A single Solve call on a t-sink
// instance allocates O(t) component records, label stores, queue storage
// and ownership stamps; routing re-solves every net once per
// rip-up-and-reroute wave, so those allocations dominate the hot path.
// A Scratch retains all of that state between calls and resets it in
// O(touched) — label stores and the ownership stamps clear by bumping a
// generation stamp (O(1)), queues and the union-find reset in O(t), and
// component records are recycled through a free list.
//
// Pass a Scratch via Options.Scratch. Results are bit-identical to
// scratch-free solves: no container exposes iteration order to the
// algorithm, so retained capacity cannot change any tie-breaking.
//
// A Scratch is not safe for concurrent use; use one per goroutine
// (internal/router keeps one per routing worker, the public
// costdist.SolveBatch one per batch worker).
type Scratch struct {
	sol      solver // reused solver; its containers retain capacity
	compPool []*comp
	mapPool  []*sparse.Map
	slabPool []*sparse.LabelSlab
	pcg      *rand.PCG

	// Solves counts completed calls through this arena (cheap visibility
	// for tests and metrics).
	Solves int
	// Deterministic work done through this arena, cumulative over its
	// solves (failed ones included): Searches is component searches
	// started, Pushed queue entries pushed (validate's corrected re-pushes
	// included), Settled labels made permanent. They repeat exactly for the
	// same instances and options, so a test can gate on them where a clock
	// is too noisy.
	Searches, Pushed, Settled int64
}

// NewScratch returns an empty arena. The zero value is not usable;
// arenas must be created here so the embedded solver links back to its
// pools.
func NewScratch() *Scratch {
	scr := &Scratch{}
	scr.sol.scr = scr
	return scr
}

// newComp returns a zeroed component record, recycling queue storage
// from merged components of earlier solves.
func (scr *Scratch) newComp() *comp {
	if n := len(scr.compPool); n > 0 {
		c := scr.compPool[n-1]
		scr.compPool = scr.compPool[:n-1]
		q := c.queue
		q.Reset()
		*c = comp{queue: q}
		return c
	}
	return &comp{}
}

// getLabels returns an empty label store for the current solve: a dense
// slab over the solve's index window when it fits slabMaxVerts, a hash
// map otherwise. Capacity is recycled through per-kind pools.
func (scr *Scratch) getLabels() labelStore {
	if scr.sol.useSlab {
		var s *sparse.LabelSlab
		if n := len(scr.slabPool); n > 0 {
			s = scr.slabPool[n-1]
			scr.slabPool = scr.slabPool[:n-1]
		} else {
			s = new(sparse.LabelSlab)
		}
		s.Reset(scr.sol.winSize)
		return labelStore{slab: s}
	}
	if n := len(scr.mapPool); n > 0 {
		m := scr.mapPool[n-1]
		scr.mapPool = scr.mapPool[:n-1]
		m.Reset()
		return labelStore{m: m}
	}
	return labelStore{m: sparse.NewMap(64)}
}

// putLabels returns a label store's backing to its pool.
func (scr *Scratch) putLabels(ls labelStore) {
	if ls.slab != nil {
		scr.slabPool = append(scr.slabPool, ls.slab)
	} else if ls.m != nil {
		scr.mapPool = append(scr.mapPool, ls.m)
	}
}

// reseed (re)initializes the deterministic RNG for one instance seed.
// Reseeding an existing PCG is state-identical to rand.NewPCG, so reuse
// does not perturb the randomized merge choices.
func (scr *Scratch) reseed(seed uint64) *rand.Rand {
	if scr.pcg == nil {
		scr.pcg = rand.NewPCG(seed, seedStream)
		return rand.New(scr.pcg)
	}
	scr.pcg.Seed(seed, seedStream)
	if scr.sol.rng == nil {
		return rand.New(scr.pcg)
	}
	return scr.sol.rng
}

// release returns the previous solve's component records and label
// stores to the pools. It runs at the start of the next solve (rather
// than at the end of the current one) so error paths need no cleanup.
func (scr *Scratch) release() {
	s := &scr.sol
	for _, c := range s.comps {
		scr.putLabels(c.labels)
		c.labels = labelStore{}
		scr.compPool = append(scr.compPool, c)
	}
	s.comps = s.comps[:0]
}

package core

import (
	"math/rand/v2"

	"costdist/internal/heaps"
	"costdist/internal/sparse"
)

// Scratch is a reusable solver arena. A single Solve call on a t-sink
// instance allocates O(t) component records with their queue storage and
// label page tables, the label pages the searches touch, the window's
// ownership stamps and the future-cost memo over the window's plane (one
// 16-byte slot per gcell); routing re-solves every net once per
// rip-up-and-reroute wave, so those allocations dominate the hot path.
// A Scratch retains all of that state between calls and resets it in
// O(touched) — label slabs, the ownership stamps and the memo clear by
// taking a fresh generation stamp, label pages and queue storage go back
// to arena-wide pools when their component retires, the union-find
// resets in O(t), and component records are recycled through a free
// list.
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
	pages    sparse.PagePool // label pages and stamps of every comp's slab
	// queues is the queue storage of the searches that ended, emptied;
	// the next search to start borrows the last one. Like the label
	// pages, the arena so keeps what the most searches one solve ran at
	// once needed, not every pooled component's largest queue ever, and
	// a routing worker's heap does not follow which nets it drew.
	queues []heaps.Lazy[entry]
	pcg    *rand.PCG

	// Solves counts completed calls through this arena (cheap visibility
	// for tests and metrics).
	Solves int
	// Work is the deterministic work done through this arena, cumulative
	// over its solves (failed ones included).
	Work
}

// Work counts what the searches of a solve did: Searches is component
// searches started, Pushed queue entries pushed (validate's corrected
// re-pushes included), Settled labels made permanent and Estimated
// future-cost scans (future.Targets.Est calls). The counts repeat exactly
// for the same instances and options, so a test can gate on them where a
// clock is too noisy, and they add up over nets in any order.
type Work struct {
	Searches, Pushed, Settled, Estimated int64
}

// Add adds o's counts to w.
func (w *Work) Add(o Work) {
	w.Searches += o.Searches
	w.Pushed += o.Pushed
	w.Settled += o.Settled
	w.Estimated += o.Estimated
}

// NewScratch returns an empty arena. The zero value is not usable;
// arenas must be created here so the embedded solver links back to its
// pools.
func NewScratch() *Scratch {
	scr := &Scratch{}
	scr.sol.scr = scr
	return scr
}

// PeakLabelPages returns the largest number of label pages
// (sparse.PageSlots labels each) the searches run through this arena
// have held at the same time. Like the work counters it repeats exactly
// for the same instances and options.
func (scr *Scratch) PeakLabelPages() int { return scr.pages.Peak() }

// newComp returns a zeroed component record, recycling the label page
// table of a component of an earlier solve; release took its queue.
func (scr *Scratch) newComp() *comp {
	if n := len(scr.compPool); n > 0 {
		c := scr.compPool[n-1]
		scr.compPool = scr.compPool[:n-1]
		*c = comp{labels: c.labels}
		return c
	}
	return &comp{}
}

// lendQueue gives c, a new component starting its search, the queue
// storage the latest search to end gave back; with none, c's empty queue
// grows on first push.
func (scr *Scratch) lendQueue(c *comp) {
	if n := len(scr.queues); n > 0 {
		c.queue, scr.queues[n-1] = scr.queues[n-1], heaps.Lazy[entry]{}
		scr.queues = scr.queues[:n-1]
	}
}

// takeQueue takes back, emptied, the queue storage of c, whose search
// has ended.
func (scr *Scratch) takeQueue(c *comp) {
	if c.queue.Cap() > 0 {
		c.queue.Reset()
		scr.queues = append(scr.queues, c.queue)
	}
	c.queue = heaps.Lazy[entry]{}
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

// release returns the previous solve's component records, label pages
// and queue storage to the pools. It runs at the start of the next solve
// (rather than at the end of the current one) so error paths need no
// cleanup.
func (scr *Scratch) release() {
	s := &scr.sol
	for _, c := range s.comps {
		c.labels.Release()
		scr.takeQueue(c)
		scr.compPool = append(scr.compPool, c)
	}
	s.comps = s.comps[:0]
}

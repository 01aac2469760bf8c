package core

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"costdist/internal/geom"
	"costdist/internal/nets"
)

// TestScratchBitIdentical reuses one arena across a stream of instances
// (all option sets, varying sizes, including randomized chooseRep) and
// requires every tree to match a fresh, scratch-free solve step for
// step. One instance in the middle of the stream spans the wide graph's
// full window, so the recycled components' page tables grow from 12
// entries to 512 and shrink back.
func TestScratchBitIdentical(t *testing.T) {
	g, c := newGraph(24, 24, 5)
	wg, wc := wideGraph()
	for name, opt := range allOptionSets() {
		scr := NewScratch()
		rng := rand.New(rand.NewPCG(41, 43))
		for it := 0; it < 25; it++ {
			ig, ic, n := g, c, 1+rng.IntN(24)
			if it == 12 {
				ig, ic, n = wg, wc, 8
			}
			in := randInstance(rng, ig, ic, n, 4.0)
			want, err := Solve(in, opt)
			if err != nil {
				t.Fatalf("%s it=%d fresh: %v", name, it, err)
			}
			scrOpt := opt
			scrOpt.Scratch = scr
			got, err := Solve(in, scrOpt)
			if err != nil {
				t.Fatalf("%s it=%d scratch: %v", name, it, err)
			}
			if !reflect.DeepEqual(want.Steps, got.Steps) {
				t.Fatalf("%s it=%d: scratch solve diverged (%d vs %d steps)",
					name, it, len(want.Steps), len(got.Steps))
			}
		}
		if scr.Solves != 25 {
			t.Fatalf("%s: Solves = %d, want 25", name, scr.Solves)
		}
	}
}

// TestScratchTraceMatches checks that traced solves through a reused
// arena emit the same merge events, and that retained trace events stay
// valid after later solves (paths must not alias recycled buffers).
func TestScratchTraceMatches(t *testing.T) {
	g, c := newGraph(20, 20, 4)
	rng := rand.New(rand.NewPCG(8, 15))
	scr := NewScratch()
	opt := DefaultOptions()
	for it := 0; it < 10; it++ {
		in := randInstance(rng, g, c, 12, 4.0)
		var fresh, reused []TraceEvent
		if _, err := SolveTraced(in, opt, func(e TraceEvent) { fresh = append(fresh, e) }); err != nil {
			t.Fatal(err)
		}
		scrOpt := opt
		scrOpt.Scratch = scr
		if _, err := SolveTraced(in, scrOpt, func(e TraceEvent) { reused = append(reused, e) }); err != nil {
			t.Fatal(err)
		}
		// Solve something else through the arena, then compare the
		// retained events: a pooled path buffer would now be clobbered.
		if _, err := Solve(randInstance(rng, g, c, 9, 4.0), scrOpt); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("it=%d: trace events diverged under scratch reuse", it)
		}
	}
}

// TestScratchAfterError verifies an arena survives a failed solve
// (disconnected window) and keeps producing correct results.
func TestScratchAfterError(t *testing.T) {
	g, c := newGraph(24, 24, 4)
	rng := rand.New(rand.NewPCG(5, 6))
	scr := NewScratch()
	opt := DefaultOptions()
	opt.Scratch = scr

	// The window caps movement above X1/Y1, so a root strictly outside
	// it is unreachable from a sink inside it.
	bad := randInstance(rng, g, c, 6, 4.0)
	bad.Root = g.At(20, 20, 0)
	bad.Sinks = []nets.Sink{{V: g.At(0, 0, 0), W: 0.01}}
	bad.Win = geom.Rect{X0: 0, Y0: 0, X1: 5, Y1: 5}
	if _, err := Solve(bad, opt); err == nil {
		t.Fatal("expected error for disconnected window")
	}

	for it := 0; it < 5; it++ {
		in := randInstance(rng, g, c, 10, 4.0)
		want, err := Solve(in, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(in, opt)
		if err != nil {
			t.Fatalf("arena broken after error: %v", err)
		}
		if !reflect.DeepEqual(want.Steps, got.Steps) {
			t.Fatalf("it=%d: diverged after error recovery", it)
		}
	}
}

// TestScratchReducesAllocs is the tentpole's point: repeated solves
// through one arena must allocate far less than fresh solves.
func TestScratchReducesAllocs(t *testing.T) {
	g, c := newGraph(32, 32, 5)
	rng := rand.New(rand.NewPCG(2, 4))
	ins := make([]*nets.Instance, 16)
	for i := range ins {
		ins[i] = randInstance(rng, g, c, 16, 4.0)
	}
	opt := DefaultOptions()

	fresh := testing.AllocsPerRun(20, func() {
		for _, in := range ins {
			if _, err := Solve(in, opt); err != nil {
				t.Fatal(err)
			}
		}
	})

	scrOpt := opt
	scrOpt.Scratch = NewScratch()
	// Warm the arena so steady-state reuse is measured.
	for _, in := range ins {
		if _, err := Solve(in, scrOpt); err != nil {
			t.Fatal(err)
		}
	}
	reused := testing.AllocsPerRun(20, func() {
		for _, in := range ins {
			if _, err := Solve(in, scrOpt); err != nil {
				t.Fatal(err)
			}
		}
	})

	if reused > fresh/2 {
		t.Fatalf("scratch reuse allocs/run = %.0f, fresh = %.0f; want at least 2x reduction", reused, fresh)
	}
	t.Logf("allocs per 16-instance run: fresh %.0f, scratch %.0f", fresh, reused)
}

// TestSolveAllocationBound is the count gate on what one solve through
// a warmed arena allocates (t = 16 on 32×32×5, default options): the
// result tree and its steps, 2.0 a net on go1.24 — it was 468 while
// PruneToTree built its adjacency in maps. The pin leaves room for
// PruneToTree's pooled rooting to be regrown, about 20 allocations: a
// collection empties a sync.Pool, and under -race a quarter of the Puts
// are dropped.
func TestSolveAllocationBound(t *testing.T) {
	g, c := newGraph(32, 32, 5)
	rng := rand.New(rand.NewPCG(2, 4))
	ins := make([]*nets.Instance, 12)
	for i := range ins {
		ins[i] = randInstance(rng, g, c, 16, 4.0)
	}
	opt := DefaultOptions()
	opt.Scratch = NewScratch()
	run := func() {
		for _, in := range ins {
			if _, err := Solve(in, opt); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	const maxAllocs = 40
	if n := testing.AllocsPerRun(10, run) / float64(len(ins)); n > maxAllocs {
		t.Fatalf("Solve allocates %.1f times per net on a warmed arena, pinned at %d", n, maxAllocs)
	}
}

// TestScratchQueuesFollowSearches holds the arena's queue storage to the
// searches one solve runs at once: a search starts per sink component
// and per non-root merge, and each merge ends two, so no solve holds
// more queues than it has sinks. Component records keep none once
// retired. Were every record to keep its own queue, a t-sink solve
// would leave 2t−1 of them behind.
func TestScratchQueuesFollowSearches(t *testing.T) {
	g, c := newGraph(24, 24, 5)
	rng := rand.New(rand.NewPCG(7, 9))
	scr := NewScratch()
	opt := DefaultOptions()
	opt.Scratch = scr
	most := 0
	for it := 0; it < 60; it++ {
		n := 1 + rng.IntN(24)
		most = max(most, n)
		if _, err := Solve(randInstance(rng, g, c, n, 4.0), opt); err != nil {
			t.Fatal(err)
		}
		if len(scr.queues) > most {
			t.Fatalf("solve %d: the arena holds %d queues after solves of at most %d sinks", it, len(scr.queues), most)
		}
		for _, cc := range scr.sol.comps {
			if cc.queue.Cap() > 0 {
				t.Fatalf("solve %d: retired component %d kept its queue", it, cc.id)
			}
		}
	}
}

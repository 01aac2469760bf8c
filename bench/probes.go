package main

import (
	"math/rand/v2"
	"time"

	"costdist"
	"costdist/internal/cong"
	"costdist/internal/core"
	"costdist/internal/geom"
	"costdist/internal/grid"
	"costdist/internal/nets"
	"costdist/internal/reembed"
	"costdist/internal/sta"
)

// Layer probes: single-threaded harness-timed calls into one layer's
// public functions, one warm pass then one timed pass, on inputs derived
// from the workload. They run under the traced pass's "probe" root, so
// they never touch an end-to-end number.

// warmThenTime runs fn twice — the warm pass, then the timed pass — and
// returns the second run's duration.
func warmThenTime(fn func()) time.Duration {
	fn()
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func perItem(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return usOf(total) / float64(n)
}

// probeCore runs the instances through core.Solve with one core.Scratch
// — the oracle without the router around it; the gap to
// core.solve.us_per_net is the router's per-net overhead. warm is the
// warm pass's input (the batch workload warms on its cheap half only).
func probeCore(r *run, parent int, warm, ins []*nets.Instance) []*nets.RTree {
	sp := r.tr.begin(parent, -1, "probe.core.solve")
	defer r.tr.end(sp)
	opt := core.DefaultOptions()
	opt.Scratch = core.NewScratch()
	for _, in := range warm {
		if _, err := core.Solve(in, opt); err != nil {
			r.failf("core probe: %v", err)
		}
	}
	trees := make([]*nets.RTree, len(ins))
	var total time.Duration
	bytes, objects := allocDelta(func() {
		t0 := time.Now()
		for i, in := range ins {
			tr, err := core.Solve(in, opt)
			if err != nil {
				r.failf("core probe: %v", err)
			}
			trees[i] = tr
		}
		total = time.Since(t0)
	})
	if n := float64(len(ins)); n > 0 {
		r.setL("core.probe.us_per_net", perItem(total, len(ins)))
		r.setL("core.probe.alloc_b_per_net", float64(bytes)/n)
		r.setL("core.probe.allocs_per_net", float64(objects)/n)
	}
	return trees
}

// probeReembed repairs each probe tree under a seeded price bump: ×1.5
// on 10 % of the segment multipliers, the kind of drift that sends a
// net to the repair rung.
func probeReembed(r *run, parent int, ins []*nets.Instance, trees []*nets.RTree) {
	if len(ins) == 0 {
		return
	}
	sp := r.tr.begin(parent, -1, "probe.reembed.repair")
	defer r.tr.end(sp)
	bumped := *ins[0].C // captured instances of one wave share one price vector
	bumped.Mult = append([]float32(nil), ins[0].C.Mult...)
	rng := rand.New(rand.NewPCG(r.cfg.seed, 0xB0B))
	for i := range bumped.Mult {
		if rng.IntN(10) == 0 {
			bumped.Mult[i] *= 1.5
		}
	}
	scr := reembed.NewScratch()
	var done, improved int
	total := warmThenTime(func() {
		done, improved = 0, 0
		for i, in := range ins {
			if trees[i] == nil {
				continue
			}
			moved := *in
			moved.C = &bumped
			out, err := reembed.Repair(&moved, trees[i], scr)
			if err != nil {
				continue // unrepairable nets escalate in the router too
			}
			done++
			if out.Improved {
				improved++
			}
		}
	})
	r.setL("reembed.probe.us_per_net", perItem(total, done))
	if done > 0 {
		r.setL("reembed.probe.improved_ratio", float64(improved)/float64(done))
	}
}

// probeCong replays the final trees into a fresh Usage and runs one
// tracked price update from unit multipliers; it returns the changed
// plane regions for the window-index probe.
func probeCong(r *run, parent int, chip *costdist.Chip, trees []*nets.RTree) []geom.Rect {
	sp := r.tr.begin(parent, -1, "probe.cong")
	defer r.tr.end(sp)
	g := chip.G
	opt := costdist.DefaultRouterOptions()
	var usage *cong.Usage
	replay := warmThenTime(func() {
		usage = cong.NewUsage(g)
		for _, tr := range trees {
			if tr == nil {
				continue
			}
			for _, st := range tr.Steps {
				usage.AddArc(st.Arc)
			}
		}
	})
	var rects []geom.Rect
	var changed int
	update := warmThenTime(func() {
		pricer := cong.NewPricer(g, opt.PriceAlpha, opt.PriceTarget)
		tracker := cong.NewDeltaTracker(g, opt.IncrementalTol)
		rects, changed = pricer.UpdateTracked(tracker, usage)
	})
	r.setL("cong.usage_replay.us", usOf(replay))
	r.setL("cong.update_tracked.us", usOf(update))
	r.setL("cong.changed_segs", float64(changed))
	return rects
}

// probeNets builds the window index over the trees' bounding boxes,
// queries it with the changed regions (the dirty scan's two steps) and
// evaluates the probe trees.
func probeNets(r *run, parent int, g *grid.Graph, trees []*nets.RTree, rects []geom.Rect, ins []*nets.Instance, probeTrees []*nets.RTree) {
	sp := r.tr.begin(parent, -1, "probe.nets")
	defer r.tr.end(sp)
	boxes := make([]geom.Rect, len(trees))
	for i, tr := range trees {
		boxes[i] = geom.EmptyRect()
		if tr != nil {
			boxes[i] = tr.BBox(g)
		}
	}
	var ix *nets.WindowIndex
	build := warmThenTime(func() { ix = nets.BuildWindowIndex(boxes) })
	var hits, evaluated int
	query := warmThenTime(func() {
		hits = 0
		for _, rc := range rects {
			ix.Query(rc, func(int32) { hits++ })
		}
	})
	eval := warmThenTime(func() {
		evaluated = 0
		for i, in := range ins {
			if probeTrees[i] == nil {
				continue
			}
			if _, err := nets.Evaluate(in, probeTrees[i]); err != nil {
				r.failf("evaluate probe: %v", err)
			}
			evaluated++
		}
	})
	r.setL("nets.window_index.build_us", usOf(build))
	r.setL("nets.window_index.query_us", usOf(query))
	r.setL("nets.window_index.hits", float64(hits))
	r.setL("nets.evaluate.us_per_net", perItem(eval, evaluated))
}

// probeSTA times one timing analysis of the chip's netlist under a
// deterministic synthetic delay (the L1 pin distance, 10 ps a gcell).
func probeSTA(r *run, parent int, chip *costdist.Chip) {
	sp := r.tr.begin(parent, -1, "probe.sta.analyze")
	defer r.tr.end(sp)
	nl := chip.NL
	delay := func(n, k int) float64 {
		net := nl.Nets[n]
		return 10 * float64(geom.L1(nl.Cells[net.Driver].Pos, nl.Cells[net.Sinks[k]].Pos))
	}
	d := warmThenTime(func() { sta.Analyze(nl, delay, chip.ClkPeriod) })
	r.setL("sta.analyze.us", usOf(d))
}

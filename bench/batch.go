package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"

	"costdist"
)

// slabCap is core's label-store switch (slabMaxVerts in
// internal/core/store.go): a window with more vertices than this falls
// back from the flat slab to the hash-map label store. The workload is
// built around it, so it is restated here rather than guessed.
const slabCap = 1 << 16

// batchWorkload is oracle-batch: SolveBatch(CD, Workers=1) over a pool,
// chunk by chunk, on a BatchGrid² × 8 grid under seeded congestion. Half the pool's time is
// "wide" nets (pins spread over the chip, window > slabCap vertices,
// hash-map label store) and half its count "local" nets (all pins in a
// 32×32 box, slab store), each at 8, 32 and 96 sinks: one worker,
// paper-scale windows, large t — the way cold-route never uses core.
//
// The pin geometry is drawn once from a fixed stream, so the window
// sizes under test are the same on every seed; the workload seed draws
// the price field, moves every pin by up to ±3 gcells and seeds each
// instance. (Drawing the geometry per seed moved wall_s by ±8 %: with
// ten wide nets the pool is too small to average that out, and ten is
// what fits the run budget.)
type batchWorkload struct {
	ins  []*costdist.Instance
	wide []bool
	// chunks cuts the pool into runs of two wide or 36 local nets: one
	// SolveBatch call and one timed part each (about half a second), with
	// a host calibration between them (stopwatch.lap).
	chunks [][2]int

	last struct {
		wall          float64
		solveS, evalS []float64 // per instance, traced pass only
		wideAllocB    uint64
	}
}

func (w *batchWorkload) setup(r *run) error {
	sz := r.cfg.sz
	r.busy = 1 // one worker
	n := sz.BatchGrid
	tech := costdist.DefaultTech(8)
	g := costdist.NewGrid(n, n, costdist.BuildLayers(tech), tech.GCellUM)
	c := costdist.NewCosts(g)
	prices := rand.New(rand.NewPCG(r.cfg.seed, 0xC057))
	for i := range c.Mult {
		if prices.IntN(3) == 0 {
			c.Mult[i] = 1 + 6*prices.Float32()
		}
	}
	shape := rand.New(rand.NewPCG(0x5EED, 0x5A9E)) // fixed: see the type comment
	jitter := rand.New(rand.NewPCG(r.cfg.seed, 0x717))
	clamp := func(v int32) int32 { return max(0, min(n-1, v)) }
	dbif := costdist.Dbif(tech)

	w.ins, w.wide, w.chunks = nil, nil, nil
	add := func(sinks int, wide bool) error {
		box := int32(32)
		if wide {
			box = n
		}
		// Rejection sampling keeps the split exact: a "wide" net whose
		// window happens to fit the slab is redrawn, and vice versa.
		for try := 0; try < 1000; try++ {
			x0, y0 := int32(0), int32(0)
			if box < n {
				x0, y0 = shape.Int32N(n-box), shape.Int32N(n-box)
			}
			pin := func() costdist.Vertex {
				x := x0 + shape.Int32N(box) + jitter.Int32N(7) - 3
				y := y0 + shape.Int32N(box) + jitter.Int32N(7) - 3
				return g.At(clamp(x), clamp(y), 0)
			}
			in := &costdist.Instance{
				G: g, C: c, Root: pin(), DBif: dbif, Eta: 0.25,
				Seed: r.cfg.seed<<20 + uint64(len(w.ins)),
			}
			for s := 0; s < sinks; s++ {
				// The Lagrangean weight profile of bench_test.go: mostly
				// uncritical sinks, one in five timing-critical.
				wt := 0.0005 * shape.Float64()
				if shape.IntN(5) == 0 {
					wt = 0.01 + 0.05*shape.Float64()
				}
				in.Sinks = append(in.Sinks, costdist.Sink{V: pin(), W: wt})
			}
			in.Win = in.DefaultWindow(6)
			if (g.NewWindow(in.Win).Size() > slabCap) == wide {
				w.ins = append(w.ins, in)
				w.wide = append(w.wide, wide)
				return nil
			}
		}
		return fmt.Errorf("no %d-sink net with wide=%v on a %d² grid", sinks, wide, n)
	}
	for k, sinks := range []int{8, 32, 96} {
		for i := 0; i < sz.BatchWide[k]; i++ {
			if err := add(sinks, true); err != nil {
				return err
			}
		}
	}
	for k, sinks := range []int{8, 32, 96} {
		for i := 0; i < sz.BatchLocal[k]; i++ {
			if err := add(sinks, false); err != nil {
				return err
			}
		}
	}
	for lo := 0; lo < len(w.ins); {
		size := 36
		if w.wide[lo] {
			size = 2
		}
		hi := lo
		for hi < len(w.ins) && hi-lo < size && w.wide[hi] == w.wide[lo] {
			hi++
		}
		w.chunks = append(w.chunks, [2]int{lo, hi})
		lo = hi
	}
	return nil
}

func (w *batchWorkload) op(r *run, opID int) float64 {
	r.attempted += len(w.ins)
	L := &w.last
	ropt := costdist.DefaultRouterOptions()
	out := make([]costdist.BatchResult, len(w.ins))
	L.solveS, L.evalS = make([]float64, len(w.ins)), make([]float64, len(w.ins))
	L.wideAllocB = 0

	root := r.beginOp(opID)
	for c, ch := range w.chunks {
		if c > 0 {
			r.lap()
		}
		if r.tr == nil {
			copy(out[ch[0]:], costdist.SolveBatch(w.ins[ch[0]:ch[1]], costdist.CD, costdist.BatchOptions{Workers: 1, Router: ropt}))
			continue
		}
		// The traced pass is SolveBatch's one-worker loop written out,
		// so that each instance's solve and evaluation get their span.
		solver := costdist.NewSolver() // one arena per SolveBatch call, never reused across ops
		var a, b runtime.MemStats
		for i := ch[0]; i < ch[1]; i++ {
			in := w.ins[i]
			if w.wide[i] {
				runtime.ReadMemStats(&a)
			}
			sp := r.tr.begin(root, opID, fmt.Sprintf("batch.solve[%d]", i))
			tr, err := solver.Solve(in, costdist.CD, ropt)
			L.solveS[i] = r.tr.end(sp)
			if w.wide[i] {
				runtime.ReadMemStats(&b)
				L.wideAllocB += b.TotalAlloc - a.TotalAlloc
			}
			if err != nil {
				out[i].Err = err
				continue
			}
			sp = r.tr.begin(root, opID, fmt.Sprintf("batch.evaluate[%d]", i))
			ev, err := costdist.Evaluate(in, tr)
			L.evalS[i] = r.tr.end(sp)
			out[i] = costdist.BatchResult{Tree: tr, Eval: ev, Err: err}
		}
	}
	L.wall = r.endOp(root)

	objective, digest := w.check(r, out)
	r.sameDigest(digest)
	return objective
}

// check is oracle-batch's output check: every instance has a tree that
// costdist.Evaluate accepts and scores exactly as the batch reported.
func (w *batchWorkload) check(r *run, out []costdist.BatchResult) (objective float64, digest string) {
	h := sha256.New()
	for i, res := range out {
		switch {
		case res.Err != nil:
			r.failf("instance %d: %v", i, res.Err)
			continue
		case res.Tree == nil || res.Eval == nil:
			r.failf("instance %d: no tree", i)
			continue
		}
		ev, err := costdist.Evaluate(w.ins[i], res.Tree)
		if err != nil {
			r.failf("instance %d: invalid tree: %v", i, err)
			continue
		}
		if ev.Total != res.Eval.Total {
			r.failf("instance %d: batch reported total %v, Evaluate says %v", i, res.Eval.Total, ev.Total)
		}
		objective += ev.Total
		var buf [16]byte
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(ev.Total))
		binary.LittleEndian.PutUint64(buf[8:], uint64(len(res.Tree.Steps)))
		h.Write(buf[:])
	}
	return objective, hex.EncodeToString(h.Sum(nil))
}

func (w *batchWorkload) traced(r *run, untracedWall float64) error {
	const opID = 0
	w.op(r, opID)
	L := &w.last
	var nWide, nLocal int
	var wideS, localS, evalS float64
	var solveUS []float64
	for i, s := range L.solveS {
		if w.wide[i] {
			nWide++
			wideS += s
		} else {
			nLocal++
			localS += s
		}
		evalS += L.evalS[i]
		solveUS = append(solveUS, s*1e6)
	}
	n := float64(len(w.ins))
	busy := wideS + localS
	r.setL("core.solve.count", n)
	r.setL("core.solve.busy_s", busy)
	r.setL("core.solve.us_per_net", busy*1e6/n)
	r.setL("core.solve.p99_us", quantile(sortedCopy(solveUS), 0.99))
	if nWide > 0 {
		r.setL("core.wide.us_per_net", wideS*1e6/float64(nWide))
		r.setL("core.wide.alloc_kb_per_net", float64(L.wideAllocB)/1024/float64(nWide))
	}
	if nLocal > 0 {
		r.setL("core.local.us_per_net", localS*1e6/float64(nLocal))
	}
	r.setL("nets.evaluate.us_per_net", evalS*1e6/n)
	r.setL("obs.overhead_pct", 100*(L.wall/untracedWall-1))

	r.attr = []attrRow{
		{Name: "core.wide", Seconds: wideS, Note: fmt.Sprintf("%d solves, window > %d vertices", nWide, slabCap)},
		{Name: "core.local", Seconds: localS, Note: fmt.Sprintf("%d solves, slab label store", nLocal)},
		{Name: "nets.evaluate", Seconds: evalS},
		{Name: "batch.other", Seconds: L.wall - busy - evalS, Note: "op wall − solves − evaluations: dispatch, spans, memory reads"},
		{Name: "= traced op wall", Seconds: L.wall, Sub: true},
	}

	root := r.tr.begin(-1, -1, "probe")
	defer r.tr.end(root)
	var warm []*costdist.Instance
	for i, in := range w.ins {
		if !w.wide[i] {
			warm = append(warm, in)
		}
	}
	probeCore(r, root, warm, w.ins)
	return nil
}

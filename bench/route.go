package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"costdist"
	"costdist/internal/obs"
)

// routeWorkload is cold-route (warm == false) and eco-warm (warm ==
// true). Both route the suite's c1 design at ChipScale.
//
//	cold-route: RouteChip(chip, CD, defaults, Threads) — four full
//	            waves of the legacy engine; >99 % of it is core.Solve.
//	eco-warm:   UnmarshalCheckpoint(B) → RouteChipFrom(state, ECO(chip),
//	            CD, RepairTol) → MarshalCheckpoint: the round trip the
//	            service's base_job pays, where the replay → repair →
//	            re-solve ladder and the codec do the work.
//
// The design and the ECO are the same on every seed, like the paper's
// benchmark designs; the workload seed reaches the router only as
// RouterOptions.Seed. Congestion-negotiated routing is chaotic in its
// input: a new ChipSpec.Seed per run moved wall_s by ±30 % and overflow
// by 4× at this scale, and re-placing one sink on 10 % of the nets of a
// fixed design still moved the objective by 5–8 % — no bound within
// the 25 % cap resolves a change against that, while on one design
// objective, overflow and every count repeat to the last bit.
type routeWorkload struct {
	warm bool

	chip *costdist.Chip // c1 at ChipScale
	eco  *costdist.Chip // eco-warm: chip after the ECO
	base []byte         // eco-warm: checkpoint B of the cold base route

	genMS, perturbMS float64

	// last is what the most recent op left for the traced pass.
	last struct {
		res        *costdist.RouteResult
		rec        *costdist.Recorder
		recOff     int64
		root       int
		routeSpan  int
		wall       float64
		unmarshalS float64
		routeS     float64
		marshalS   float64
		ckptBytes  int
	}
}

func (w *routeWorkload) options(r *run) costdist.RouterOptions {
	opt := costdist.DefaultRouterOptions()
	opt.Threads = r.cfg.threads
	opt.Seed = r.cfg.seed
	return opt
}

func (w *routeWorkload) warmOptions(r *run) costdist.RouterOptions {
	opt := w.options(r)
	opt.RepairTol = r.cfg.sz.RepairTol
	return opt
}

func (w *routeWorkload) setup(r *run) error {
	sz := r.cfg.sz
	spec, ok := costdist.ChipSpecByName("c1", sz.ChipScale)
	if !ok {
		return fmt.Errorf("suite has no chip c1")
	}
	t0 := time.Now()
	c1, err := costdist.GenerateChip(spec)
	if err != nil {
		return err
	}
	w.genMS = time.Since(t0).Seconds() * 1e3
	w.chip = c1
	if !w.warm {
		return nil
	}

	res, st, err := costdist.RouteChipCheckpoint(w.chip, costdist.CD, w.options(r))
	if err != nil {
		return fmt.Errorf("base route: %w", err)
	}
	if w.base, err = costdist.MarshalCheckpoint(st); err != nil {
		return fmt.Errorf("base checkpoint: %w", err)
	}
	// The warm start's contract: without an edit it solves nothing and
	// reproduces the base objective exactly.
	r.attempted++
	res0, _, err := costdist.RouteChipFrom(st, w.chip, costdist.CD, w.warmOptions(r))
	switch {
	case err != nil:
		r.failf("zero-perturbation warm start: %v", err)
	case res0.Metrics.NetsSolved != 0 || res0.Metrics.Objective != res.Metrics.Objective:
		r.failf("zero-perturbation warm start solved %d nets, objective %v vs base %v",
			res0.Metrics.NetsSolved, res0.Metrics.Objective, res.Metrics.Objective)
	}
	t0 = time.Now()
	w.eco, _, err = costdist.PerturbChip(w.chip, sz.EcoFrac, 0xEC0)
	w.perturbMS = time.Since(t0).Seconds() * 1e3
	return err
}

func (w *routeWorkload) op(r *run, opID int) float64 {
	r.attempted++
	L := &w.last
	opt := w.options(r)
	chip := w.chip
	if w.warm {
		opt, chip = w.warmOptions(r), w.eco
	}
	// A fresh Recorder per traced op: reusing one accumulates
	// StageNanosPerWave across ops. Its clock starts here, just before
	// the op's root span, so its spans graft inside the route span.
	L.rec = nil
	if r.tr != nil {
		L.recOff = r.tr.now()
		L.rec = costdist.NewRecorder()
		opt.Recorder = L.rec
	}

	var res *costdist.RouteResult
	var err error
	L.root = r.beginOp(opID)
	if !w.warm {
		L.routeSpan = r.tr.begin(L.root, opID, "router.route")
		res, err = costdist.RouteChip(chip, costdist.CD, opt)
		L.routeS = r.tr.end(L.routeSpan)
	} else {
		var st, newSt *costdist.RouterState
		var out []byte
		sp := r.tr.begin(L.root, opID, "io.unmarshal_checkpoint")
		st, err = costdist.UnmarshalCheckpoint(w.base)
		L.unmarshalS = r.tr.end(sp)
		if err == nil {
			L.routeSpan = r.tr.begin(L.root, opID, "router.route_from")
			res, newSt, err = costdist.RouteChipFrom(st, chip, costdist.CD, opt)
			L.routeS = r.tr.end(L.routeSpan)
		}
		if err == nil {
			sp = r.tr.begin(L.root, opID, "io.marshal_checkpoint")
			out, err = costdist.MarshalCheckpoint(newSt)
			L.marshalS = r.tr.end(sp)
			L.ckptBytes = len(out)
		}
	}
	L.wall = r.endOp(L.root)
	if err != nil {
		r.failf("op %d: %v", opID, err)
		return 0
	}
	L.res = res

	digest, err := checkRouteResult(chip, res)
	if err != nil {
		r.failf("op %d: %v", opID, err)
		return res.Metrics.Objective
	}
	r.sameDigest(digest)
	if w.warm && (res.Metrics.NetsSkipped == 0 || res.Metrics.NetsRepaired == 0) {
		r.failf("op %d: warm route skipped %d and repaired %d nets; the ladder did not engage",
			opID, res.Metrics.NetsSkipped, res.Metrics.NetsRepaired)
	}
	return res.Metrics.Objective
}

// checkRouteResult is the route workloads' output check: every net has
// a tree and the result survives MarshalRouteResult →
// UnmarshalRouteResult byte for byte. The digest covers trees and the
// deterministic metric row (objective, overflow, counts); the
// Recorder's per-wave series are cleared first so traced and untraced
// ops of one workload must agree too.
func checkRouteResult(chip *costdist.Chip, res *costdist.RouteResult) (string, error) {
	if len(res.Trees) != len(chip.NL.Nets) {
		return "", fmt.Errorf("result has %d trees for %d nets", len(res.Trees), len(chip.NL.Nets))
	}
	for ni, tr := range res.Trees {
		if tr == nil {
			return "", fmt.Errorf("net %d has no tree", ni)
		}
	}
	plain := *res
	plain.Metrics.ObjectivePerWave, plain.Metrics.OverflowPerWave, plain.Metrics.StageNanosPerWave = nil, nil, nil
	data, err := costdist.MarshalRouteResult(chip, &plain)
	if err != nil {
		return "", err
	}
	back, err := costdist.UnmarshalRouteResult(chip, data)
	if err != nil {
		return "", fmt.Errorf("result does not unmarshal: %w", err)
	}
	again, err := costdist.MarshalRouteResult(chip, back)
	if err != nil {
		return "", err
	}
	if !bytes.Equal(data, again) {
		return "", fmt.Errorf("result does not round-trip through its wire form")
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

func (w *routeWorkload) traced(r *run, untracedWall float64) error {
	const opID = 0
	w.op(r, opID)
	L := &w.last
	if L.res == nil || L.rec == nil {
		return fmt.Errorf("traced op failed")
	}
	m := L.res.Metrics
	threads := float64(r.cfg.threads)
	solveUS := graftRecorder(r.tr, L.routeSpan, opID, L.rec, L.recOff)

	var st costdist.StageNanos
	for _, s := range m.StageNanosPerWave {
		st.Dirty += s.Dirty
		st.Price += s.Price
		st.Repair += s.Repair
		st.Solve += s.Solve
		st.Replay += s.Replay
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	r.setL("core.solve.count", float64(m.NetsSolved))
	r.setL("core.solve.busy_s", sec(st.Solve))
	r.setL("core.solve.us_per_net", ratio(sec(st.Solve)*1e6, float64(m.NetsSolved)))
	r.setL("core.solve.p99_us", quantile(sortedCopy(solveUS), 0.99))

	attempts := float64(m.NetsRepaired + m.RepairEscalated)
	r.setL("reembed.attempts", attempts)
	r.setL("reembed.adopted", float64(m.NetsRepaired))
	r.setL("reembed.escalated", float64(m.RepairEscalated))
	r.setL("reembed.absorb_ratio", ratio(float64(m.NetsRepaired), attempts))
	r.setL("reembed.busy_s", sec(st.Repair))
	r.setL("reembed.us_per_attempt", ratio(sec(st.Repair)*1e6, attempts))

	var deltaSegs int
	for _, d := range m.DeltaSegsPerWave {
		deltaSegs += d
	}
	r.setL("router.nets_skipped", float64(m.NetsSkipped))
	r.setL("router.skip_ratio", ratio(float64(m.NetsSkipped), float64(m.NetsSkipped+m.NetsSolved+m.NetsRepaired)))
	r.setL("router.delta_segs", float64(deltaSegs))
	r.setL("router.dirty.busy_s", sec(st.Dirty))
	r.setL("router.price.busy_s", sec(st.Price))
	r.setL("router.replay.busy_s", sec(st.Replay))
	r.setL("router.overflow", m.Overflow)
	busy := sec(st.Solve + st.Repair)
	serial := L.routeS - busy/threads
	r.setL("router.serial_s", serial)
	r.setL("router.parallel_eff", ratio(busy, threads*L.routeS))
	if w.warm {
		r.setL("router.route_from.busy_s", L.routeS)
		r.setL("io.unmarshal_checkpoint.ms", L.unmarshalS*1e3)
		r.setL("io.marshal_checkpoint.ms", L.marshalS*1e3)
		r.setL("io.checkpoint_mb", float64(L.ckptBytes)/(1<<20))
	}
	r.setL("obs.overhead_pct", 100*(L.wall/untracedWall-1))
	r.setL("obs.dropped", float64(L.rec.Dropped()))
	r.setL("chipgen.generate.ms", w.genMS)
	r.setL("chipgen.perturb.ms", w.perturbMS)

	per := fmt.Sprintf("busy ÷ %d threads", r.cfg.threads)
	r.attr = []attrRow{
		{Name: "core.solve", Seconds: sec(st.Solve) / threads, Note: per},
		{Name: "reembed.repair", Seconds: sec(st.Repair) / threads, Note: per},
		{Name: "io.unmarshal_checkpoint", Seconds: L.unmarshalS},
		{Name: "io.marshal_checkpoint", Seconds: L.marshalS},
		{Name: "router.serial_s", Seconds: serial, Note: "route wall − busy ÷ threads: serial stages, barriers, STA, finish, imbalance"},
		{Name: "  router.dirty", Seconds: sec(st.Dirty), Sub: true},
		{Name: "  router.price", Seconds: sec(st.Price), Sub: true},
		{Name: "  router.replay", Seconds: sec(st.Replay), Sub: true},
		{Name: "harness", Seconds: L.wall - L.unmarshalS - L.routeS - L.marshalS, Note: "op wall − its three calls"},
		{Name: "= traced op wall", Seconds: L.wall, Sub: true},
	}

	return w.probes(r)
}

// graftRecorder copies a Recorder's spans into the harness trace under
// the route span: waves under the route, stage spans under their wave,
// detail spans (the re-embedding DP) under the repair span that
// contains them. It returns the solve spans' durations in µs.
func graftRecorder(tr *tracer, routeSpan, op int, rec *costdist.Recorder, off int64) (solveUS []float64) {
	names := map[obs.Stage]string{
		obs.StageWave: "router.wave", obs.StageDirty: "router.dirty", obs.StagePrice: "router.price",
		obs.StageRepair: "reembed.repair", obs.StageSolve: "core.solve", obs.StageReplay: "router.replay",
		obs.StageCheckpoint: "router.checkpoint", obs.StageCache: "service.cache",
	}
	spans := rec.Spans()
	waves := map[int32]int{}
	for _, s := range spans {
		if s.Stage == obs.StageWave {
			waves[s.Wave] = tr.graft(routeSpan, op, names[s.Stage], off+s.Start, off+s.Start+s.Dur)
		}
	}
	// A worker records a detail span before the span that contains it
	// ends, so the next plain span of the same worker is its parent.
	pending := map[int32][]costdist.TelemetrySpan{}
	for _, s := range spans {
		if s.Stage == obs.StageWave {
			continue
		}
		parent := routeSpan
		if id, ok := waves[s.Wave]; ok {
			parent = id
		}
		if s.Detail {
			pending[s.Worker] = append(pending[s.Worker], s)
			continue
		}
		id := tr.graft(parent, op, names[s.Stage], off+s.Start, off+s.Start+s.Dur)
		for _, d := range pending[s.Worker] {
			tr.graft(id, op, names[d.Stage]+"."+d.Oracle, off+d.Start, off+d.Start+d.Dur)
		}
		delete(pending, s.Worker)
		if s.Stage == obs.StageSolve {
			solveUS = append(solveUS, float64(s.Dur)/1e3)
		}
	}
	return solveUS
}

// probes runs the single-threaded layer probes on inputs derived from
// the workload: the instances of the design's last cold wave, the final
// trees, the chip's netlist.
func (w *routeWorkload) probes(r *run) error {
	root := r.tr.begin(-1, -1, "probe")
	defer r.tr.end(root)

	sp := r.tr.begin(root, -1, "probe.capture_route")
	opt := w.options(r)
	opt.CaptureWave = opt.Waves - 1
	res, err := costdist.RouteChip(w.chip, costdist.CD, opt)
	r.tr.end(sp)
	if err != nil {
		return fmt.Errorf("capture route: %w", err)
	}
	ins := res.Captured
	sort.Slice(ins, func(a, b int) bool {
		x, y := ins[a], ins[b]
		if x.Root != y.Root {
			return x.Root < y.Root
		}
		if len(x.Sinks) != len(y.Sinks) {
			return len(x.Sinks) < len(y.Sinks)
		}
		return x.Seed < y.Seed
	})
	if len(ins) > r.cfg.sz.ProbeNets {
		ins = ins[:r.cfg.sz.ProbeNets]
	}

	trees := probeCore(r, root, ins, ins)
	probeReembed(r, root, ins, trees)
	rects := probeCong(r, root, w.chip, res.Trees)
	probeNets(r, root, w.chip.G, res.Trees, rects, ins, trees)
	probeSTA(r, root, w.chip)

	sp = r.tr.begin(root, -1, "probe.io.marshal_route_result")
	marshal := warmThenTime(func() {
		if _, err := costdist.MarshalRouteResult(w.chip, res); err != nil {
			r.failf("marshal probe: %v", err)
		}
	})
	r.tr.end(sp)
	r.setL("io.marshal_route_result.ms", marshal.Seconds()*1e3)
	return nil
}

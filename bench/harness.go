package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// ---- spans ----

// span is one timed call the harness made into a layer (or a stage span
// grafted from the router's Recorder). Times are nanoseconds since the
// tracer's epoch; Parent is a span id, -1 for a root; Op groups the
// spans of one operation.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer is
// the untraced pass: every method is a no-op, so workload code is
// written once and the end-to-end numbers never pay for spans.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// begin opens a span and returns its id (-1 untraced).
func (t *tracer) begin(parent, op int, name string) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: start, End: start})
	return len(t.spans) - 1
}

// end closes a span and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id < 0 {
		return 0
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
	return float64(end-t.spans[id].Start) / 1e9
}

// graft adds a span measured elsewhere (a Recorder stage span),
// clamped into its parent so clock-offset rounding can never place a
// child outside the interval that caused it.
func (t *tracer) graft(parent, op int, name string, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent >= 0 {
		p := t.spans[parent]
		start, end = clamp64(start, p.Start, p.End), clamp64(end, p.Start, p.End)
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: start, End: end})
	return len(t.spans) - 1
}

func clamp64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// finish computes self time: a span's duration minus the part of its
// interval that its children cover (children may overlap — concurrent
// requests, parallel workers — so their intervals are merged first).
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, hi int64
		hi = math.MinInt64
		for _, k := range iv {
			lo := k[0]
			if lo < hi {
				lo = hi
			}
			if k[1] > lo {
				covered += k[1] - lo
				hi = k[1]
			}
		}
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start - covered
	}
	return t.spans
}

// write stores the spans as bench/out/<workload>.trace.json.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// attrRow is one row of the traced op's attribution table. Rows with
// Sub set break a row above them down and are not part of the sum.
type attrRow struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Note    string  `json:"note,omitempty"`
	Sub     bool    `json:"sub,omitempty"`
}

// ---- host calibration ----

// calNominalS is how long one calibration takes on this class of host
// (2.1 GHz Xeon vCPUs) when nothing disturbs it: the fastest sample of a
// run is 0.038 s, the same within 3 % from run to run. It only fixes the
// scale of wall_s — seconds on a host running at that speed — and
// divides out of any comparison of two runs.
const calNominalS = 0.038

// calibrator times a fixed piece of the harness's own work — a
// xorshift-driven binary heap beside random read-modify-writes over a
// 512 KiB table, on as many goroutines at once as the op keeps busy — so
// that an op's wall clock can be stated relative to how fast the host
// was running while it ran. It calls nothing of the program, so a change
// to the program cannot move it.
//
// Why: the benchmark runs on a few vCPUs of a shared host whose speed
// moves by 20–30 % in phases that last from seconds to minutes (a
// neighbour on the sibling hyperthread, the last-level cache, the memory
// bus). Twelve same-code, same-seed runs of cold-route: the median op
// wall moved by 25 % (interquartile 20 %), the calibration's median with
// it (23 %, 20 %), and their ratio by 3.2 % (0.9 %). No statistic of the
// op's wall alone removes a phase that outlasts the run.
type calibrator struct {
	tables [][]uint64 // one per goroutine
	heaps  [][]uint64
	cpuS   float64 // process CPU spent calibrating, to keep it out of cpu_s_per_op
	sink   uint64
}

func newCalibrator(threads int) *calibrator {
	c := &calibrator{tables: make([][]uint64, threads), heaps: make([][]uint64, threads)}
	for t := range c.tables {
		c.tables[t] = make([]uint64, 1<<16)
		c.heaps[t] = make([]uint64, 0, 4096)
	}
	return c
}

// kernel is the fixed work: 400 000 pushes into a binary min-heap that
// is half drained whenever it holds 4000 keys, each push beside one
// random read-modify-write of the table.
func calKernel(table, heap []uint64) uint64 {
	clear(table)
	heap = heap[:0]
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < 400_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&uint64(len(table)-1)] += x
		heap = append(heap, x>>20)
		for c := len(heap) - 1; c > 0; {
			p := (c - 1) / 2
			if heap[p] <= heap[c] {
				break
			}
			heap[p], heap[c] = heap[c], heap[p]
			c = p
		}
		if len(heap) < 4000 {
			continue
		}
		for k := 0; k < 2000; k++ {
			n := len(heap) - 1
			acc += heap[0]
			heap[0] = heap[n]
			heap = heap[:n]
			for p := 0; ; {
				c := 2*p + 1
				if c >= n {
					break
				}
				if c+1 < n && heap[c+1] < heap[c] {
					c++
				}
				if heap[p] <= heap[c] {
					break
				}
				heap[p], heap[c] = heap[c], heap[p]
				p = c
			}
		}
	}
	return acc + table[1]
}

// run does one calibration and returns its wall-clock seconds: the
// kernel on every goroutine at once, until the last has finished.
func (c *calibrator) run() float64 {
	cpu0 := cpuSeconds()
	sums := make([]uint64, len(c.tables))
	var wg sync.WaitGroup
	t0 := time.Now()
	for t := range c.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[t] = calKernel(c.tables[t], c.heaps[t])
		}()
	}
	wg.Wait()
	d := time.Since(t0).Seconds()
	for _, v := range sums {
		c.sink += v
	}
	c.cpuS += cpuSeconds() - cpu0
	return d
}

// ---- timing and resource accounting ----

// stopwatch accumulates what the timed region of the untraced ops cost:
// wall per op, process CPU, bytes allocated, GC cycles and pauses. The
// untimed parts of an op (fresh server, warm-up, output checks) stay
// outside start/stop. A calibration runs, untimed, before the region,
// after it, and wherever the op cuts it into parts with lap(); the op's
// normalised wall is its wall × calNominalS ÷ the mean of those
// calibrations.
type stopwatch struct {
	cal      *calibrator
	walls    []float64   // per op, as the clock read
	norm     []float64   // per op, at nominal host speed: what wall_s is the median of
	slow     []float64   // per op, mean calibration ÷ calNominalS
	parts    [][]float64 // per op, per part
	cur      []float64
	curCal   []float64
	tLap     time.Time
	cpuS     float64
	allocB   uint64
	gcCycles uint32
	gcPause  uint64

	c0, calCPU0 float64
	ms0         runtime.MemStats
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func (w *stopwatch) start() {
	w.cur, w.curCal = nil, []float64{w.cal.run()}
	runtime.ReadMemStats(&w.ms0)
	w.c0, w.calCPU0 = cpuSeconds(), w.cal.cpuS
	w.tLap = time.Now()
}

// lap ends one part of the op, calibrates, and begins the next part.
func (w *stopwatch) lap() {
	w.cur = append(w.cur, time.Since(w.tLap).Seconds())
	w.curCal = append(w.curCal, w.cal.run())
	w.tLap = time.Now()
}

func (w *stopwatch) stop() float64 {
	w.lap()
	var wall, cal float64
	for _, p := range w.cur {
		wall += p
	}
	for _, c := range w.curCal {
		cal += c / float64(len(w.curCal))
	}
	w.cpuS += cpuSeconds() - w.c0 - (w.cal.cpuS - w.calCPU0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.allocB += ms.TotalAlloc - w.ms0.TotalAlloc
	w.gcCycles += ms.NumGC - w.ms0.NumGC
	w.gcPause += ms.PauseTotalNs - w.ms0.PauseTotalNs
	w.parts = append(w.parts, w.cur)
	w.walls = append(w.walls, wall)
	w.norm = append(w.norm, wall*calNominalS/cal)
	w.slow = append(w.slow, cal/calNominalS)
	return wall
}

// allocDelta measures bytes and objects allocated by fn on this
// goroutine's process (probes run single-threaded, nothing else
// allocates meanwhile).
func allocDelta(fn func()) (bytes, objects uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, b.Mallocs - a.Mallocs
}

// ---- statistics ----

type distSummary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// quantile is the linear-interpolation quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func summarize(v []float64) distSummary {
	s := sortedCopy(v)
	if len(s) == 0 {
		return distSummary{}
	}
	return distSummary{N: len(s), Min: s[0], Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75), Max: s[len(s)-1]}
}

// spread is the interquartile distance as a share of the median.
func (d distSummary) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return (d.Q3 - d.Q1) / d.Median
}

// ---- the run ----

// run is the state of one workload run that the workload files fill in.
type run struct {
	cfg  config
	spec *benchSpec
	tr   *tracer // nil until the traced pass

	e2e, layer map[string]float64
	attempted  int
	failed     int
	digest     string
	attr       []attrRow
	warnings   []string
	clients    int
	busy       int // goroutines an op keeps busy at once: what a calibration runs (set-up may lower it from threads)
	sw         stopwatch
}

// setE and setL record a metric; a name BENCHMARK.json does not list is
// a harness bug, not data.
func (r *run) setE(name string, v float64) {
	if _, ok := r.spec.def(r.spec.EndToEnd, name); !ok {
		panic("bench: end-to-end metric not in BENCHMARK.json: " + name)
	}
	r.e2e[name] = v
}

func (r *run) setL(name string, v float64) {
	if _, ok := r.spec.def(r.spec.PerLayer, name); !ok {
		panic("bench: per-layer metric not in BENCHMARK.json: " + name)
	}
	if r.layer != nil {
		r.layer[name] = v
	}
}

// failf counts one failed operation and says why on stderr.
func (r *run) failf(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", r.cfg.workload, fmt.Sprintf(format, args...))
}

// sameDigest enforces that a workload's repeats produce byte-identical
// results: the first digest is the reference, a later mismatch is a
// failed op.
func (r *run) sameDigest(d string) {
	if r.digest == "" {
		r.digest = d
	} else if r.digest != d {
		r.failf("result digest %s differs from first repeat %s", d[:12], r.digest[:12])
	}
}

// workload is what each of the four implements.
type workload interface {
	// setup builds inputs from the seed (and, for eco-warm, the base
	// route and checkpoint). It is called SetupRepeat times; each call
	// starts from nothing.
	setup(r *run) error
	// op runs one operation and returns its objective: untimed
	// preparation, the timed region between r.beginOp and r.endOp, then
	// the output checks. It counts what it attempted in r.attempted and
	// reports every failure through r.failf. The same code serves both
	// passes: with r.tr set it records spans under the op's root span.
	op(r *run, opID int) (objective float64)
	// traced runs one traced op and the layer probes and fills r.layer
	// and r.attr. untracedWall is the untraced median for obs.overhead.
	traced(r *run, untracedWall float64) error
}

// beginOp opens the timed region of an op: the stopwatch in the
// untraced pass, the op's root span in the traced pass.
func (r *run) beginOp(opID int) int {
	if r.tr != nil {
		return r.tr.begin(-1, opID, "op")
	}
	if r.sw.cal == nil {
		r.sw.cal = newCalibrator(r.busy)
	}
	r.sw.start()
	return -1
}

// lap separates two parts of an op's timed region (untraced pass only;
// the traced pass has spans for that).
func (r *run) lap() {
	if r.tr == nil {
		r.sw.lap()
	}
}

// endOp closes the timed region and returns its wall-clock seconds.
func (r *run) endOp(root int) float64 {
	if r.tr != nil {
		return r.tr.end(root)
	}
	return r.sw.stop()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "cold-route":
		return &routeWorkload{warm: false}, nil
	case "eco-warm":
		return &routeWorkload{warm: true}, nil
	case "oracle-batch":
		return &batchWorkload{}, nil
	case "service-solve":
		return &serviceWorkload{}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// runWorkload is one process's life: set-up → untraced repeats → read
// memory → (traced) one traced op and the layer probes.
func runWorkload(spec *benchSpec, cfg config) (*record, error) {
	if cfg.threads > runtime.NumCPU() {
		return nil, fmt.Errorf("bench: threads %d > nproc %d", cfg.threads, runtime.NumCPU())
	}
	wl, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, spec: spec, e2e: map[string]float64{}, busy: cfg.threads}
	if cfg.trace {
		r.layer = map[string]float64{}
		for _, d := range spec.PerLayer {
			r.layer[d.Name] = 0
		}
	}

	// setup_s is the fastest of several set-ups, each from nothing:
	// interference from the host only ever adds time, and set-ups range
	// from 0.4 ms to a second, too unlike a calibration to be normalised
	// by one. SetupRepeat up front, then more between the ops — a
	// twentieth of a second's worth before each — until SetupBudgetS is
	// spent, so that the samples spread over the run and some fall in a
	// calm phase.
	var setups []float64
	var setupTotal float64
	setupOnce := func() error {
		t0 := time.Now()
		if err := wl.setup(r); err != nil {
			return fmt.Errorf("bench: %s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupTotal += setups[len(setups)-1]
		return nil
	}
	for i := 0; i < cfg.sz.SetupRepeat; i++ {
		if err := setupOnce(); err != nil {
			return nil, err
		}
	}

	// Untraced repeats: whole ops until the time is spent, at least one.
	var objective float64
	begin := time.Now()
	for i := 0; i == 0 || time.Since(begin).Seconds() < cfg.seconds; i++ {
		n := max(1, min(20, int(0.05/setups[len(setups)-1])))
		for ; n > 0 && setupTotal < cfg.sz.SetupBudgetS; n-- {
			if err := setupOnce(); err != nil {
				return nil, err
			}
		}
		objective = wl.op(r, i)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if len(r.sw.walls) == 0 {
		return nil, fmt.Errorf("bench: %s: no operation completed", cfg.workload)
	}

	walls := summarize(r.sw.norm)
	ops := float64(len(r.sw.walls))
	r.setE("setup_s", slices.Min(setups))
	r.setE("wall_s", walls.Median) // n, quartiles, min and max are printed beside it, and the raw clock
	r.setE("objective", objective)
	r.setE("peak_heap_mb", float64(ms.HeapSys)/(1<<20))
	if d, _ := spec.def(spec.EndToEnd, "wall_s"); walls.spread() > d.Bound {
		r.warnings = append(r.warnings, fmt.Sprintf("wall_s spread %.1f%% over %d repeats exceeds its bound %.0f%%: this run cannot resolve a regression",
			100*walls.spread(), walls.N, 100*d.Bound))
	}

	rec := &record{
		Workload: cfg.workload, Seed: cfg.seed, Threads: cfg.threads, Seconds: cfg.seconds,
		Sizes: cfg.sz, Ops: len(r.sw.walls), OpWallS: walls, OpWallRawS: summarize(r.sw.walls),
		HostSlowdown: median(r.sw.slow), CalThreads: r.busy, EndToEnd: r.e2e,
	}
	if cfg.trace {
		r.setL("costdist.cpu_s_per_op", r.sw.cpuS/ops)
		r.setL("costdist.alloc_mb_per_op", float64(r.sw.allocB)/ops/(1<<20))
		r.setL("costdist.gc_cycles_per_op", float64(r.sw.gcCycles)/ops)
		r.setL("costdist.gc_pause_ms_per_op", float64(r.sw.gcPause)/ops/1e6)
		r.setL("obs.host_slowdown", rec.HostSlowdown)
		r.tr = newTracer()
		if err := wl.traced(r, rec.OpWallRawS.Median); err != nil {
			return nil, fmt.Errorf("bench: %s traced pass: %w", cfg.workload, err)
		}
		spans := r.tr.finish()
		r.setL("obs.spans", float64(len(spans)))
		if rec.TraceFile, err = writeTrace(cfg.traceDir, cfg.workload, spans); err != nil {
			return nil, err
		}
		rec.PerLayer, rec.Attribution = r.layer, r.attr
	}
	rec.Clients, rec.Attempted, rec.Failed = r.clients, r.attempted, r.failed
	rec.Correct = r.failed == 0
	rec.Digest, rec.Warnings = r.digest, r.warnings
	return rec, nil
}

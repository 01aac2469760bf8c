// Package obs is the router's structured-observability layer: typed
// spans with monotonic timestamps, per-wave convergence snapshots, a
// Chrome trace_event exporter, a fixed-size flight-recorder ring and a
// Prometheus text-format linter — all dependency-free (stdlib only,
// like the rest of the module).
//
// The central contract is that telemetry observes the computation and
// never perturbs it. A nil *Recorder is the default and is
// zero-overhead: every method of it and of its per-worker buffers is
// nil-safe, so the router's hot loop records unguarded, and with
// Recorder == nil routed trees and metrics are byte-identical to a
// build without the package (pinned by the golden digests and the
// recorder determinism test). With a recorder attached, spans carry wall-clock durations —
// inherently nondeterministic — so durations are kept out of every wire
// form, exactly like RouteMetrics.Walltime; the deterministic
// per-wave series (objective, overflow, counts) are what crosses
// process boundaries.
//
// Concurrency model: worker goroutines write spans into private
// per-worker buffers (Worker) with no synchronization; the wave loop's
// barrier (after its WaitGroup) calls EndWave, which merges the buffers
// into the recorder in worker order — a deterministic order, so span
// streams compare across runs — and fires the OnWave callback with the
// wave's snapshot. Serial code (the wave loop itself, checkpoint
// marshaling, cache lookups) records through the mutex-guarded
// Recorder.Span.
package obs

import (
	"fmt"
	"sync"
	"time"
)

// Stage classifies a span by the pipeline stage it measures.
type Stage uint8

const (
	// StageWave spans one whole rip-up-and-reroute wave.
	StageWave Stage = iota
	// StageDirty is the incremental scheduler's dirty-net scan.
	StageDirty
	// StagePrice is the Lagrangean update block: congestion pricing,
	// STA and the weight/budget refresh.
	StagePrice
	// StageRepair is one net's topology-repair attempt (adopted or
	// escalated; the Oracle attribute carries the outcome).
	StageRepair
	// StageSolve is one net's oracle solve (the Oracle attribute names
	// the oracle or driver stage that produced the tree).
	StageSolve
	// StageReplay is the wave-end usage rebuild from the final trees.
	StageReplay
	// StageCheckpoint covers checkpoint construction and marshaling.
	StageCheckpoint
	// StageCache is a service-layer cache lookup. No service path
	// emits it any more (a route re-checks the cache at claim time,
	// outside any recorder); it stays declared because bench names it.
	StageCache

	// NumStages sizes per-stage accumulator arrays.
	NumStages = int(StageCache) + 1
)

var stageNames = [NumStages]string{
	"wave", "dirty-scan", "reprice", "repair", "solve", "replay",
	"checkpoint", "cache-lookup",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage-%d", int(s))
}

// MarshalJSON renders the stage as its name, so span dumps
// (/debug/obs) read without a decoder ring.
func (s Stage) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Span is one timed event. Start and Dur are nanoseconds on the
// recorder's monotonic clock (Start counts from the recorder's epoch).
// Wave, Worker and Net are -1 when the dimension does not apply; Oracle
// is a free-form attribute (oracle name for solves, outcome for
// repairs, a tag for service spans).
type Span struct {
	Stage  Stage  `json:"stage"`
	Wave   int32  `json:"wave"`
	Worker int32  `json:"worker"`
	Net    int32  `json:"net"`
	Oracle string `json:"oracle,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	// Detail marks a nested sub-span (the exact tier's search inside a
	// solve span, the re-embedding DP inside a repair span). Detail
	// spans appear in traces and dumps but are excluded from the
	// per-wave stage sums — their parent already covers their duration.
	Detail bool `json:"detail,omitempty"`
}

// WaveSnapshot is the per-wave convergence record emitted at each wave
// barrier: the objective and overflow of the current solution under the
// wave's final prices, the wave's work counters, and the summed span
// durations by stage. Objective and overflow are pure functions of
// (chip, method, options) — deterministic across thread counts — while
// StageNanos is wall-clock and must never enter a wire form.
type WaveSnapshot struct {
	Wave      int
	Objective float64
	Overflow  float64
	Solved    int
	Skipped   int
	Repaired  int
	Escalated int
	// StageNanos[s] sums the Dur of every span of stage s recorded for
	// this wave. Worker stages (solve, repair) sum across workers, so
	// they can exceed the wave's wall-clock span on multi-threaded runs.
	StageNanos [NumStages]int64
}

// DefaultMaxSpans bounds a recorder's span store. A scale-0.25 4-wave
// incremental route records ~60k solve spans; the cap is far above any
// realistic run while keeping a leaked recorder's memory bounded.
const DefaultMaxSpans = 1 << 20

// Recorder captures spans and wave snapshots for one routing run (or
// one service job). The zero value is not usable; construct with New.
// All methods are safe on a nil receiver, which is the zero-overhead
// default path.
type Recorder struct {
	epoch    time.Time
	maxSpans int

	mu       sync.Mutex
	spans    []Span
	dropped  int64
	waveMark int // index into spans where the current wave's spans begin
	waves    []WaveSnapshot
	onWave   func(WaveSnapshot)
	workers  []*Worker
}

// New returns a recorder with the default span cap.
func New() *Recorder { return NewCap(DefaultMaxSpans) }

// NewCap returns a recorder retaining at most maxSpans spans; later
// spans are counted in Dropped() and discarded.
func NewCap(maxSpans int) *Recorder {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	return &Recorder{epoch: time.Now(), maxSpans: maxSpans}
}

// Now returns nanoseconds since the recorder's epoch on the monotonic
// clock (0 on a nil recorder).
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Workers returns n per-worker span buffers, growing the set if needed.
// Must be called from one goroutine before the workers start; each
// returned Worker is then owned by exactly one goroutine until the next
// EndWave barrier.
func (r *Recorder) Workers(n int) []*Worker {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.workers) < n {
		r.workers = append(r.workers, &Worker{rec: r, id: int32(len(r.workers))})
	}
	return r.workers[:n]
}

// Span records one serial span ending now. Safe on nil (no-op).
func (r *Recorder) Span(st Stage, wave, net int32, oracle string, start int64) {
	if r == nil {
		return
	}
	end := r.Now()
	r.mu.Lock()
	r.addLocked(Span{Stage: st, Wave: wave, Worker: -1, Net: net, Oracle: oracle, Start: start, Dur: end - start})
	r.mu.Unlock()
}

func (r *Recorder) addLocked(s Span) {
	if len(r.spans) >= r.maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// OnWave registers a callback fired from EndWave with each wave's
// snapshot. The callback runs on the wave loop's goroutine and must not
// block (the service layer only wakes the job's stream subscribers,
// which read the snapshots back through Waves). Safe on nil (no-op).
func (r *Recorder) OnWave(fn func(WaveSnapshot)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.onWave = fn
	r.mu.Unlock()
}

// EndWave is the wave-barrier merge: it drains every worker buffer into
// the recorder in worker order (deterministic), sums the wave's span
// durations by stage into the snapshot, stores it and fires the OnWave
// callback. It must only be called when no worker goroutine is writing
// spans (after the wave's WaitGroup).
func (r *Recorder) EndWave(snap WaveSnapshot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for _, w := range r.workers {
		for _, s := range w.spans {
			r.addLocked(s)
		}
		r.dropped += w.dropped
		w.spans = w.spans[:0]
		w.dropped = 0
	}
	for _, s := range r.spans[r.waveMark:] {
		if !s.Detail && s.Wave == int32(snap.Wave) {
			snap.StageNanos[s.Stage] += s.Dur
		}
	}
	r.waveMark = len(r.spans)
	r.waves = append(r.waves, snap)
	cb := r.onWave
	r.mu.Unlock()
	if cb != nil {
		cb(snap)
	}
}

// Spans returns a copy of the recorded spans (nil on a nil recorder).
// Worker spans of a wave appear only after that wave's EndWave merge.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Waves returns a copy of the wave snapshots in wave order.
func (r *Recorder) Waves() []WaveSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]WaveSnapshot(nil), r.waves...)
}

// Dropped reports spans discarded over the cap.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Worker is a per-goroutine span buffer: writes take no locks, and the
// buffer drains into the recorder at the next EndWave barrier. Wave is
// the wave index stamped on recorded spans; the owning goroutine sets
// it between barriers. Like Recorder's, its recording methods are safe
// on a nil receiver, which records nothing.
type Worker struct {
	Wave    int32
	rec     *Recorder
	id      int32
	spans   []Span
	dropped int64
}

// Now returns the recorder's monotonic clock (0 on a nil worker).
func (w *Worker) Now() int64 {
	if w == nil {
		return 0
	}
	return w.rec.Now()
}

// Span records one span ending now on the worker's buffer. Safe on nil
// (no-op).
func (w *Worker) Span(st Stage, net int32, oracle string, start int64) {
	w.add(st, net, oracle, start, false)
}

// DetailSpan records a nested sub-span ending now: present in traces
// and dumps, excluded from per-wave stage sums (see Span.Detail). Safe
// on nil (no-op).
func (w *Worker) DetailSpan(st Stage, net int32, oracle string, start int64) {
	w.add(st, net, oracle, start, true)
}

func (w *Worker) add(st Stage, net int32, oracle string, start int64, detail bool) {
	if w == nil {
		return
	}
	end := w.rec.Now()
	if len(w.spans) >= w.rec.maxSpans {
		w.dropped++
		return
	}
	w.spans = append(w.spans, Span{Stage: st, Wave: w.Wave, Worker: w.id, Net: net, Oracle: oracle, Start: start, Dur: end - start, Detail: detail})
}

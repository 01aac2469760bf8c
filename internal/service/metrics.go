package service

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"costdist/internal/obs"
)

// latencyBuckets are the fixed histogram bucket bounds in seconds.
// Solves on the example corpus land around the first few buckets; route
// jobs fill the tail.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram in the Prometheus
// cumulative style: counts[i] counts observations ≤ latencyBuckets[i].
type histogram struct {
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Int64, len(latencyBuckets))}
}

func (h *histogram) Observe(seconds float64) {
	// Buckets are cumulative in the Prometheus exposition: counts[i] is
	// the number of observations ≤ latencyBuckets[i], so one observation
	// must increment EVERY bucket whose bound it fits under — no early
	// exit after the first match. That keeps bucket counts monotone
	// nondecreasing in i and each ≤ the total count (locked by
	// TestHistogramCumulativeBuckets).
	for i, b := range latencyBuckets {
		if seconds <= b {
			h.counts[i].Add(1)
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nb := math.Float64bits(math.Float64frombits(old) + seconds)
		if h.sumBits.CompareAndSwap(old, nb) {
			return
		}
	}
}

// metrics aggregates the server-wide counters exposed on /metrics.
type metrics struct {
	solveRequests atomic.Int64 // POST /v1/solve answered 200
	routeRequests atomic.Int64 // POST /v1/route accepted for processing
	badRequests   atomic.Int64 // 4xx responses
	queueRejects  atomic.Int64 // submits a full queue refused

	// warmStartHits/Misses count route jobs that named a base_job and
	// found / did not find its retained checkpoint; netsReused sums the
	// warm runs' NetsSkipped — the solves the checkpoints saved.
	warmStartHits   atomic.Int64
	warmStartMisses atomic.Int64
	netsReused      atomic.Int64
	// netsRepaired/repairEscalated sum the route jobs' repair-rung
	// counters (RouteMetrics.NetsRepaired / RepairEscalated).
	netsRepaired    atomic.Int64
	repairEscalated atomic.Int64
	// checkpointRawBytes/GzBytes total the marshaled and stored
	// (gzip-compressed) sizes of retained checkpoints — their ratio is
	// the live compression factor of the checkpoint store.
	checkpointRawBytes atomic.Int64
	checkpointGzBytes  atomic.Int64

	// sseSubscribers gauges the currently connected event-stream
	// consumers; sseEvents counts frames delivered.
	sseSubscribers atomic.Int64
	sseEvents      atomic.Int64

	solveLatency *histogram // time-to-response of /v1/solve (hits and misses)
	// solveQueueWait is the queue part of a miss's solveLatency: submit
	// to the moment a worker claims the task. Handler-side hits never
	// queue, so its count is the number of misses submitted.
	solveQueueWait *histogram
	jobLatency     *histogram // run time of route jobs

	mu       sync.Mutex
	byOracle map[string]int64 // oracle/driver solve counts
	// oracleLatency histograms per-net solve latency by oracle name;
	// stageLatency histograms per-wave stage walltime by stage name.
	// Both fed from route-job telemetry recorders.
	oracleLatency map[string]*histogram
	stageLatency  map[string]*histogram
}

func newMetrics() *metrics {
	return &metrics{
		solveLatency:   newHistogram(),
		solveQueueWait: newHistogram(),
		jobLatency:     newHistogram(),
		byOracle:       map[string]int64{},
		oracleLatency:  map[string]*histogram{},
		stageLatency:   map[string]*histogram{},
	}
}

// observeOracleSolve records one per-net solve latency under the
// oracle's name.
func (m *metrics) observeOracleSolve(name string, seconds float64) {
	m.mu.Lock()
	h := m.oracleLatency[name]
	if h == nil {
		h = newHistogram()
		m.oracleLatency[name] = h
	}
	m.mu.Unlock()
	h.Observe(seconds)
}

// observeWaveStages records one wave's per-stage walltimes from a wave
// snapshot. Called from the router's OnWave callback, so it stays cheap
// (one map lookup and a few atomic adds per stage).
func (m *metrics) observeWaveStages(ws obs.WaveSnapshot) {
	for st := obs.Stage(0); int(st) < obs.NumStages; st++ {
		ns := ws.StageNanos[st]
		if ns <= 0 || st == obs.StageWave {
			continue
		}
		name := st.String()
		m.mu.Lock()
		h := m.stageLatency[name]
		if h == nil {
			h = newHistogram()
			m.stageLatency[name] = h
		}
		m.mu.Unlock()
		h.Observe(float64(ns) / 1e9)
	}
}

// labeledHistograms snapshots one of the name→histogram maps for
// rendering (the histograms themselves are concurrency-safe; only the
// map needs the lock).
func (m *metrics) labeledHistograms(which map[string]*histogram) map[string]*histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]*histogram, len(which))
	for k, v := range which {
		out[k] = v
	}
	return out
}

// chargeOracle adds per-oracle solve counts (from RouteMetrics, or one
// count for a standalone solve).
func (m *metrics) chargeOracle(name string, n int64) {
	m.mu.Lock()
	m.byOracle[name] += n
	m.mu.Unlock()
}

func (m *metrics) oracleCounts() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.byOracle))
	for k, v := range m.byOracle {
		out[k] = v
	}
	return out
}

// renderMetrics assembles the /metrics body: the Prometheus text
// exposition of every server counter — request totals, queue depth,
// cache hit/miss/byte gauges, per-oracle solve counts and the latency
// histograms.
func renderMetrics(m *metrics, cs, cps CacheStats, queueDepth int, jobs map[string]int) string {
	var b []byte
	add := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	add("# TYPE routed_requests_total counter\n")
	add("routed_requests_total{endpoint=\"solve\"} %d\n", m.solveRequests.Load())
	add("routed_requests_total{endpoint=\"route\"} %d\n", m.routeRequests.Load())
	add("# TYPE routed_bad_requests_total counter\n")
	add("routed_bad_requests_total %d\n", m.badRequests.Load())
	add("# TYPE routed_queue_rejects_total counter\n")
	add("routed_queue_rejects_total %d\n", m.queueRejects.Load())
	add("# TYPE routed_queue_depth gauge\n")
	add("routed_queue_depth %d\n", queueDepth)

	add("# TYPE routed_cache_hits_total counter\n")
	add("routed_cache_hits_total %d\n", cs.Hits)
	add("# TYPE routed_cache_misses_total counter\n")
	add("routed_cache_misses_total %d\n", cs.Misses)
	add("# TYPE routed_cache_evictions_total counter\n")
	add("routed_cache_evictions_total %d\n", cs.Evictions)
	add("# TYPE routed_cache_bytes gauge\n")
	add("routed_cache_bytes %d\n", cs.Bytes)
	add("# TYPE routed_cache_entries gauge\n")
	add("routed_cache_entries %d\n", cs.Entries)

	add("# TYPE routed_warm_starts_total counter\n")
	add("routed_warm_starts_total{outcome=\"hit\"} %d\n", m.warmStartHits.Load())
	add("routed_warm_starts_total{outcome=\"miss\"} %d\n", m.warmStartMisses.Load())
	add("# TYPE routed_warm_start_nets_reused_total counter\n")
	add("routed_warm_start_nets_reused_total %d\n", m.netsReused.Load())

	add("# TYPE routed_nets_repaired_total counter\n")
	add("routed_nets_repaired_total %d\n", m.netsRepaired.Load())
	add("# TYPE routed_repair_escalated_total counter\n")
	add("routed_repair_escalated_total %d\n", m.repairEscalated.Load())

	// routed_checkpoint_bytes reports the store's resident (compressed)
	// bytes; the *_raw/_gzip totals expose the compression ratio.
	add("# TYPE routed_checkpoint_bytes gauge\n")
	add("routed_checkpoint_bytes %d\n", cps.Bytes)
	add("# TYPE routed_checkpoint_entries gauge\n")
	add("routed_checkpoint_entries %d\n", cps.Entries)
	add("# TYPE routed_checkpoint_evictions_total counter\n")
	add("routed_checkpoint_evictions_total %d\n", cps.Evictions)
	add("# TYPE routed_checkpoint_raw_bytes_total counter\n")
	add("routed_checkpoint_raw_bytes_total %d\n", m.checkpointRawBytes.Load())
	add("# TYPE routed_checkpoint_gzip_bytes_total counter\n")
	add("routed_checkpoint_gzip_bytes_total %d\n", m.checkpointGzBytes.Load())

	add("# TYPE routed_jobs gauge\n")
	for _, st := range sortedKeys(jobs) {
		add("routed_jobs{status=%q} %d\n", st, jobs[st])
	}

	add("# TYPE routed_sse_subscribers gauge\n")
	add("routed_sse_subscribers %d\n", m.sseSubscribers.Load())
	add("# TYPE routed_sse_events_total counter\n")
	add("routed_sse_events_total %d\n", m.sseEvents.Load())

	add("# TYPE routed_solves_total counter\n")
	counts := m.oracleCounts()
	for _, name := range sortedKeys(counts) {
		add("routed_solves_total{oracle=%q} %d\n", name, counts[name])
	}

	renderHistogram(&b, "routed_solve_latency_seconds", "", m.solveLatency)
	renderHistogram(&b, "routed_solve_queue_wait_seconds", "", m.solveQueueWait)
	renderHistogram(&b, "routed_job_latency_seconds", "", m.jobLatency)
	renderLabeledHistograms(&b, "routed_oracle_solve_latency_seconds", "oracle",
		m.labeledHistograms(m.oracleLatency))
	renderLabeledHistograms(&b, "routed_wave_stage_seconds", "stage",
		m.labeledHistograms(m.stageLatency))
	return string(b)
}

// renderHistogram writes one histogram family. labels, when non-empty,
// is a preformatted `key="value"` list prefixed to every series' label
// set (including _sum/_count, which Prometheus permits and the lint
// check in internal/obs accepts as the same family).
func renderHistogram(b *[]byte, name, labels string, h *histogram) {
	if labels == "" {
		*b = append(*b, fmt.Sprintf("# TYPE %s histogram\n", name)...)
	}
	sep := ""
	if labels != "" {
		sep = labels + ","
	}
	for i, bound := range latencyBuckets {
		*b = append(*b, fmt.Sprintf("%s_bucket{%sle=%q} %d\n",
			name, sep, strconv.FormatFloat(bound, 'g', -1, 64), h.counts[i].Load())...)
	}
	*b = append(*b, fmt.Sprintf("%s_bucket{%sle=\"+Inf\"} %d\n", name, sep, h.count.Load())...)
	if labels != "" {
		*b = append(*b, fmt.Sprintf("%s_sum{%s} %g\n", name, labels, math.Float64frombits(h.sumBits.Load()))...)
		*b = append(*b, fmt.Sprintf("%s_count{%s} %d\n", name, labels, h.count.Load())...)
		return
	}
	*b = append(*b, fmt.Sprintf("%s_sum %g\n", name, math.Float64frombits(h.sumBits.Load()))...)
	*b = append(*b, fmt.Sprintf("%s_count %d\n", name, h.count.Load())...)
}

// renderLabeledHistograms writes one histogram family with one series
// group per label value (sorted, so the exposition is deterministic).
// An empty map still declares the family so dashboards can discover it.
func renderLabeledHistograms(b *[]byte, name, labelKey string, hs map[string]*histogram) {
	*b = append(*b, fmt.Sprintf("# TYPE %s histogram\n", name)...)
	for _, k := range sortedKeys(hs) {
		renderHistogram(b, name, fmt.Sprintf("%s=%q", labelKey, k), hs[k])
	}
}

// sortedKeys returns m's keys in ascending order, so every exposition
// is deterministic.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

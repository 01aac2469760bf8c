package service

import (
	"math"
	"strings"
	"sync"
	"testing"

	"costdist/internal/obs"
)

// Histogram buckets are cumulative: after any sequence of observations
// every bucket count is ≤ the next bucket's count, and every bucket is
// ≤ the total count — the invariant the Prometheus exposition format
// assumes and the Observe loop's no-early-exit comment promises.
func TestHistogramCumulativeBuckets(t *testing.T) {
	h := newHistogram()
	obsv := []float64{0, 0.0004, 0.0005, 0.003, 0.07, 0.9, 4, 9.99, 10, 11, 1e6}
	for _, v := range obsv {
		h.Observe(v)
	}
	total := h.count.Load()
	if total != int64(len(obsv)) {
		t.Fatalf("count %d, want %d", total, len(obsv))
	}
	for i := range latencyBuckets {
		c := h.counts[i].Load()
		if i+1 < len(latencyBuckets) {
			if next := h.counts[i+1].Load(); c > next {
				t.Fatalf("bucket[%d]=%d > bucket[%d]=%d: not cumulative", i, c, i+1, next)
			}
		}
		if c > total {
			t.Fatalf("bucket[%d]=%d exceeds count %d", i, c, total)
		}
	}
	// Spot-check the boundary semantics: le is inclusive.
	if got := h.counts[0].Load(); got != 3 { // 0, 0.0004, 0.0005 ≤ 0.0005
		t.Fatalf("bucket[0]=%d, want 3 (le is inclusive)", got)
	}
	var sum float64
	for _, v := range obsv {
		sum += v
	}
	if got := math.Float64frombits(h.sumBits.Load()); got != sum {
		t.Fatalf("sum %g, want %g", got, sum)
	}
}

// Observe is called concurrently from handlers and the OnWave callback;
// the cumulative invariant must survive parallel observers.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(g*i%17) * 0.001)
			}
		}(g)
	}
	wg.Wait()
	if got := h.count.Load(); got != 8000 {
		t.Fatalf("count %d, want 8000", got)
	}
	for i := range latencyBuckets[:len(latencyBuckets)-1] {
		if h.counts[i].Load() > h.counts[i+1].Load() {
			t.Fatalf("bucket[%d] > bucket[%d] after concurrent observes", i, i+1)
		}
	}
}

// The full /metrics rendering — including the labeled per-oracle and
// per-stage histogram families — must pass the Prometheus text-format
// lint that CI scrapes for.
func TestRenderMetricsLints(t *testing.T) {
	m := newMetrics()
	m.solveRequests.Add(3)
	m.solveLatency.Observe(0.002)
	m.solveQueueWait.Observe(0.0001)
	m.jobLatency.Observe(1.5)
	m.chargeOracle("cd", 41)
	m.chargeOracle("exact", 2)
	m.observeOracleSolve("cd", 0.004)
	m.observeOracleSolve("exact", 0.4)
	var ws obs.WaveSnapshot
	ws.StageNanos[obs.StageSolve] = 3_000_000
	ws.StageNanos[obs.StagePrice] = 50_000
	m.observeWaveStages(ws)
	m.sseSubscribers.Add(1)
	m.sseEvents.Add(12)

	body := renderMetrics(m, CacheStats{Hits: 1, Misses: 2, Bytes: 300, Entries: 1},
		CacheStats{}, 4, map[string]int{"done": 2, "running": 1})
	if err := obs.LintPromText([]byte(body)); err != nil {
		t.Fatalf("rendered /metrics fails lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		`routed_solve_queue_wait_seconds_bucket{le="0.0005"} 1`,
		`routed_solve_queue_wait_seconds_count 1`,
		`routed_oracle_solve_latency_seconds_bucket{oracle="cd",le="+Inf"} 1`,
		`routed_oracle_solve_latency_seconds_count{oracle="exact"} 1`,
		`routed_wave_stage_seconds_count{stage="solve"} 1`,
		`routed_wave_stage_seconds_count{stage="reprice"} 1`,
		"routed_sse_subscribers 1",
		"routed_sse_events_total 12",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("rendered /metrics missing %q:\n%s", want, body)
		}
	}
}

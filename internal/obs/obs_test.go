package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Now() != 0 {
		t.Fatalf("nil Now() = %d, want 0", r.Now())
	}
	r.Span(StageWave, 0, -1, "", 0)
	r.EndWave(WaveSnapshot{})
	r.OnWave(func(WaveSnapshot) { t.Fatal("callback on nil recorder") })
	if r.Spans() != nil || r.Waves() != nil || r.Dropped() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	if r.Workers(4) != nil {
		t.Fatal("nil recorder returned workers")
	}
	var w *Worker
	if w.Now() != 0 {
		t.Fatalf("nil worker Now() = %d, want 0", w.Now())
	}
	w.Span(StageSolve, 1, "cd", 0)
	w.DetailSpan(StageSolve, 1, "exact-search:adopted", 0)
}

func TestEndWaveMergesWorkersDeterministically(t *testing.T) {
	r := New()
	ws := r.Workers(3)
	// Record in reverse worker order; the merge must come back in
	// worker order regardless.
	for w := 2; w >= 0; w-- {
		ws[w].Wave = 0
		start := ws[w].Now()
		ws[w].Span(StageSolve, int32(10+w), "cd", start)
	}
	start := r.Now()
	r.Span(StagePrice, 0, -1, "", start)
	r.EndWave(WaveSnapshot{Wave: 0, Objective: 1.5, Overflow: 2, Solved: 3})

	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	// Serial span first (recorded pre-merge), then workers 0,1,2.
	if spans[0].Stage != StagePrice || spans[0].Worker != -1 {
		t.Fatalf("span 0 = %+v, want serial reprice", spans[0])
	}
	for w := 0; w < 3; w++ {
		s := spans[1+w]
		if s.Worker != int32(w) || s.Net != int32(10+w) || s.Oracle != "cd" || s.Stage != StageSolve {
			t.Fatalf("merged span %d = %+v, want worker %d net %d", w, s, w, 10+w)
		}
	}

	waves := r.Waves()
	if len(waves) != 1 {
		t.Fatalf("got %d waves, want 1", len(waves))
	}
	snap := waves[0]
	if snap.Objective != 1.5 || snap.Overflow != 2 || snap.Solved != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.StageNanos[StagePrice] <= 0 || snap.StageNanos[StageSolve] <= 0 {
		t.Fatalf("stage nanos not accumulated: %v", snap.StageNanos)
	}
}

func TestEndWaveOnlySumsOwnWave(t *testing.T) {
	r := New()
	w := r.Workers(1)[0]
	w.Wave = 0
	w.Span(StageSolve, 1, "cd", w.Now())
	r.EndWave(WaveSnapshot{Wave: 0})
	w.Wave = 1
	w.Span(StageRepair, 2, "adopted", w.Now())
	r.EndWave(WaveSnapshot{Wave: 1})
	waves := r.Waves()
	if waves[0].StageNanos[StageRepair] != 0 {
		t.Fatalf("wave 0 charged wave 1 repair time: %v", waves[0].StageNanos)
	}
	if waves[1].StageNanos[StageSolve] != 0 {
		t.Fatalf("wave 1 charged wave 0 solve time: %v", waves[1].StageNanos)
	}
}

func TestOnWaveCallbackFires(t *testing.T) {
	r := New()
	var got []int
	r.OnWave(func(ws WaveSnapshot) { got = append(got, ws.Wave) })
	r.EndWave(WaveSnapshot{Wave: 0})
	r.EndWave(WaveSnapshot{Wave: 1})
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("callback waves = %v, want [0 1]", got)
	}
}

func TestSpanCapDrops(t *testing.T) {
	r := NewCap(2)
	for i := 0; i < 5; i++ {
		r.Span(StageCache, -1, -1, "", r.Now())
	}
	if len(r.Spans()) != 2 {
		t.Fatalf("retained %d spans, want 2", len(r.Spans()))
	}
	if r.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", r.Dropped())
	}
}

func TestWriteTraceRoundTrip(t *testing.T) {
	r := New()
	w := r.Workers(2)
	w[0].Span(StageSolve, 7, "cd", w[0].Now())
	w[1].Span(StageRepair, 8, "escalated", w[1].Now())
	r.Span(StageReplay, 0, -1, "", r.Now())
	r.EndWave(WaveSnapshot{Wave: 0})
	r.Span(StageCheckpoint, -1, -1, "marshal", r.Now())

	var buf bytes.Buffer
	if err := WriteTrace(&buf, r.Spans()); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if err := ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("ValidateTrace: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{`"solve:cd"`, `"repair:escalated"`, `"replay"`, `"checkpoint:marshal"`, `"traceEvents"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace lacks %s:\n%s", want, out)
		}
	}
}

func TestValidateTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":        `{`,
		"no events array": `{"foo": 1}`,
		"unnamed event":   `{"traceEvents":[{"ph":"X","ts":0,"dur":1,"pid":1,"tid":0}]}`,
		"bad phase":       `{"traceEvents":[{"name":"x","ph":"B","ts":0,"dur":1,"pid":1,"tid":0}]}`,
		"missing ts":      `{"traceEvents":[{"name":"x","ph":"X","dur":1,"pid":1,"tid":0}]}`,
	}
	for name, doc := range cases {
		if err := ValidateTrace([]byte(doc)); err == nil {
			t.Errorf("%s: ValidateTrace accepted %s", name, doc)
		}
	}
}

func TestRingWrapsAndCounts(t *testing.T) {
	r := NewRing(4)
	mk := func(n int32) []Span { return []Span{{Stage: StageSolve, Net: n}} }
	for i := int32(0); i < 6; i++ {
		r.Add(mk(i))
	}
	spans, total := r.Snapshot()
	if total != 6 {
		t.Fatalf("total = %d, want 6", total)
	}
	if len(spans) != 4 {
		t.Fatalf("retained %d, want 4", len(spans))
	}
	for i, s := range spans {
		if s.Net != int32(2+i) {
			t.Fatalf("span %d net = %d, want %d (oldest-first order)", i, s.Net, 2+i)
		}
	}
	// A batch larger than capacity keeps its tail.
	big := make([]Span, 10)
	for i := range big {
		big[i].Net = int32(100 + i)
	}
	r.Add(big)
	spans, _ = r.Snapshot()
	if len(spans) != 4 || spans[0].Net != 106 || spans[3].Net != 109 {
		t.Fatalf("big batch snapshot = %+v", spans)
	}
}

func TestLintPromTextAcceptsWellFormed(t *testing.T) {
	doc := `# TYPE routed_requests_total counter
routed_requests_total{endpoint="solve"} 3
routed_requests_total{endpoint="route"} 1
# TYPE routed_queue_depth gauge
routed_queue_depth 0
# TYPE routed_solve_latency_seconds histogram
routed_solve_latency_seconds_bucket{le="0.1"} 2
routed_solve_latency_seconds_bucket{le="+Inf"} 3
routed_solve_latency_seconds_sum 0.4
routed_solve_latency_seconds_count 3
# TYPE routed_oracle_solve_latency_seconds histogram
routed_oracle_solve_latency_seconds_bucket{oracle="cd",le="0.1"} 1
routed_oracle_solve_latency_seconds_bucket{oracle="cd",le="+Inf"} 1
routed_oracle_solve_latency_seconds_sum{oracle="cd"} 0.01
routed_oracle_solve_latency_seconds_count{oracle="cd"} 1
`
	if err := LintPromText([]byte(doc)); err != nil {
		t.Fatalf("LintPromText rejected well-formed doc: %v", err)
	}
}

func TestLintPromTextRejectsViolations(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE": "orphan_metric 1\n",
		"duplicate series":    "# TYPE a counter\na 1\na 2\n",
		"bad value":           "# TYPE a counter\na x\n",
		"histogram without +Inf": `# TYPE h histogram
h_bucket{le="0.1"} 1
h_sum 1
h_count 1
`,
		"histogram without sum": `# TYPE h histogram
h_bucket{le="+Inf"} 1
h_count 1
`,
		"histogram without count": `# TYPE h histogram
h_bucket{le="+Inf"} 1
h_sum 1
`,
	}
	for name, doc := range cases {
		if err := LintPromText([]byte(doc)); err == nil {
			t.Errorf("%s: lint accepted\n%s", name, doc)
		}
	}
}

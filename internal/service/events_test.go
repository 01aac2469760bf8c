package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"costdist/internal/obs"
)

// sseEvent is one server-sent event as a client reads it: a name
// ("wave" or "done") and a JSON data payload.
type sseEvent struct {
	name string
	data []byte
}

// readSSE consumes a text/event-stream body until EOF, returning the
// (event-name, data) frames in arrival order.
func readSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	defer resp.Body.Close()
	var evs []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.name != "" || cur.data != nil {
				evs = append(evs, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			cur.name = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = append([]byte(nil), line[len("data: "):]...)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading event stream: %v", err)
	}
	return evs
}

// The SSE stream of a multi-wave route job delivers one wave event per
// wave with strictly increasing wave indices, then a final done event
// whose metrics section matches the stored result byte-for-byte.
func TestRouteJobEventStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	jv := submitRoute(t, ts.URL, `{"chip":"c1","scale":0.002,"waves":3,"oracle":"cd"}`)

	// Subscribe immediately — while the job runs — so the test also
	// covers live consumption, not only post-completion replay.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + jv.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q, want text/event-stream", ct)
	}
	evs := readSSE(t, resp)

	if len(evs) < 2 {
		t.Fatalf("got %d events, want at least one wave plus done", len(evs))
	}
	last := evs[len(evs)-1]
	if last.name != "done" {
		t.Fatalf("final event is %q, want done", last.name)
	}
	waves := evs[:len(evs)-1]
	if len(waves) != 3 {
		t.Fatalf("got %d wave events for a 3-wave route", len(waves))
	}
	prev := -1
	for _, ev := range waves {
		if ev.name != "wave" {
			t.Fatalf("unexpected event %q before done", ev.name)
		}
		var we waveEvent
		if err := json.Unmarshal(ev.data, &we); err != nil {
			t.Fatalf("wave event data %s: %v", ev.data, err)
		}
		if we.Wave <= prev {
			t.Fatalf("wave indices not strictly increasing: %d after %d", we.Wave, prev)
		}
		prev = we.Wave
		if we.Objective <= 0 {
			t.Fatalf("wave %d has no objective: %s", we.Wave, ev.data)
		}
		if len(we.StageNs) == 0 {
			t.Fatalf("wave %d has no stage timings: %s", we.Wave, ev.data)
		}
	}

	// The done event's metrics must agree with the result endpoint.
	result := waitResult(t, ts.URL, jv.ID)
	var res struct {
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(result, &res); err != nil {
		t.Fatal(err)
	}
	var de doneEvent
	if err := json.Unmarshal(last.data, &de); err != nil {
		t.Fatal(err)
	}
	if de.Status != JobDone {
		t.Fatalf("done event status %q", de.Status)
	}
	// The stored result and the SSE frames are both compact.
	if !bytes.Equal(de.Metrics, res.Metrics) {
		t.Fatalf("done event metrics differ from stored result:\n%s\nvs\n%s", de.Metrics, res.Metrics)
	}

	// A subscriber attaching after completion replays the identical
	// history.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + jv.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	evs2 := readSSE(t, resp2)
	if len(evs2) != len(evs) {
		t.Fatalf("replay delivered %d events, live stream %d", len(evs2), len(evs))
	}
	for i := range evs {
		if evs[i].name != evs2[i].name || !bytes.Equal(evs[i].data, evs2[i].data) {
			t.Fatalf("replay event %d differs from live event", i)
		}
	}

	// A cache-hit resubmission never routes: its stream is exactly one
	// done frame, byte-equal to the first job's.
	hit := submitRoute(t, ts.URL, `{"chip":"c1","scale":0.002,"waves":3,"oracle":"cd"}`)
	if hit.Status != JobDone {
		t.Fatalf("resubmission status %q, want a cache hit (done)", hit.Status)
	}
	resp3, err := http.Get(ts.URL + "/v1/jobs/" + hit.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	evs3 := readSSE(t, resp3)
	if len(evs3) != 1 || evs3[0].name != "done" || !bytes.Equal(evs3[0].data, last.data) {
		t.Fatalf("cache-hit stream of %d frames, want exactly the first job's done frame %s", len(evs3), last.data)
	}
}

// A job's stream reads its recorder's waves up to the terminal
// transition: a subscriber attached while the job runs receives every
// wave recorded before it, a wave recorded after the job ended is not
// streamed, and a later subscriber replays the same frames. A job with
// no recorder streams only its done frame.
func TestJobEventsStreamRecorderUntilEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	stream := func(id string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	jb := s.jobs.create(s.ctx, "recorded")
	rec := obs.New()
	jb.events.record(rec)
	rec.OnWave(func(obs.WaveSnapshot) { jb.events.onWave() })
	live := stream(jb.id)
	rec.EndWave(obs.WaveSnapshot{Wave: 0, Objective: 10, Solved: 4})
	rec.EndWave(obs.WaveSnapshot{Wave: 1, Objective: 9, Solved: 1})
	jb.finish(JobCancelled, nil, "cancelled by test")
	rec.EndWave(obs.WaveSnapshot{Wave: 2, Objective: 8})
	// A terminal job keeps no recorder, even one attached after the end
	// (a job cancelled between its terminal check and record).
	holdsRecorder := func() bool {
		jb.events.mu.Lock()
		defer jb.events.mu.Unlock()
		return jb.events.rec != nil
	}
	if holdsRecorder() {
		t.Fatal("a terminal job holds its recorder")
	}
	jb.events.record(obs.New())
	if holdsRecorder() {
		t.Fatal("a terminal job kept a recorder attached after the end")
	}

	evs := readSSE(t, live)
	want := []string{
		`wave {"wave":0,"objective":10,"overflow":0,"solved":4,"skipped":0,"repaired":0,"escalated":0}`,
		`wave {"wave":1,"objective":9,"overflow":0,"solved":1,"skipped":0,"repaired":0,"escalated":0}`,
		`done {"status":"cancelled","error":"cancelled by test"}`,
	}
	replay := readSSE(t, stream(jb.id))
	for _, got := range [][]sseEvent{evs, replay} {
		lines := make([]string, len(got))
		for i, ev := range got {
			lines[i] = ev.name + " " + string(ev.data)
		}
		if strings.Join(lines, "\n") != strings.Join(want, "\n") {
			t.Fatalf("frames:\n%s\nwant:\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
		}
	}

	plain := s.jobs.create(s.ctx, "never-routed")
	plain.finishShared(JobDone, []byte("{\n  \"metrics\": {\"objective\": 1.5}\n}"), "")
	evs = readSSE(t, stream(plain.id))
	if len(evs) != 1 || evs[0].name != "done" || string(evs[0].data) != `{"status":"done","metrics":{"objective":1.5}}` {
		t.Fatalf("stream of a job without a recorder: %d frames, want one done frame with the result's metrics", len(evs))
	}
}

// A subscriber that connects and never reads must not stall the route
// job: publishing is non-blocking, so the job completes while the
// stalled client's frames sit in its handler's history cursor.
func TestStalledSubscriberDoesNotBlockJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	jv := submitRoute(t, ts.URL, `{"chip":"c1","scale":0.002,"waves":3,"oracle":"cd"}`)

	// Open the stream and then never read from it. The response body
	// stays unconsumed until the deferred close.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + jv.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The job must reach a terminal state regardless of the stalled
	// consumer; waitResult polls with its own deadline.
	done := make(chan []byte, 1)
	go func() { done <- waitResult(t, ts.URL, jv.ID) }()
	select {
	case result := <-done:
		if len(result) == 0 {
			t.Fatal("empty result")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("route job did not complete while a subscriber was stalled")
	}
}

// Events for an unknown job 404 like the other job endpoints.
func TestEventsUnknownJobIs404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

// A failed job's stream terminates with a done event carrying the
// failure status, so consumers never hang on error paths.
func TestEventStreamOnCancelledJob(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Create a job and cancel it before it can be picked up by using
	// the registry directly — the HTTP cancel path is exercised
	// elsewhere; here only the stream's terminal behavior matters.
	jb := s.jobs.create(s.ctx, "test-key")
	jb.finish(JobCancelled, nil, "cancelled by test")

	resp, err := http.Get(ts.URL + "/v1/jobs/" + jb.id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	evs := readSSE(t, resp)
	if len(evs) != 1 || evs[0].name != "done" {
		t.Fatalf("got %d events (%v), want exactly one done event", len(evs), evs)
	}
	var de doneEvent
	if err := json.Unmarshal(evs[0].data, &de); err != nil {
		t.Fatal(err)
	}
	if de.Status != JobCancelled || de.Error == "" {
		t.Fatalf("done event %s, want cancelled with error", evs[0].data)
	}
}

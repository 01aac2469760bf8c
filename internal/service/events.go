package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"costdist/internal/obs"
)

// jobEvents is what a job's event stream reads besides the job itself.
// The route's recorder is the stream's only history: its per-wave
// snapshots are kept there anyway, and frames are built from them in
// the SSE handler, for the subscriber that reads them. The publisher
// (the recorder's OnWave callback, on the wave barrier) only closes and
// replaces the wake-up channel under a short critical section, so it
// never blocks: a slow or disconnected subscriber stalls only its own
// handler goroutine, never the wave loop — the property the SSE tests
// enforce.
//
// jobEvents has its own mutex and never touches job.mu, so
// job.terminate may end the stream without lock-order concerns. It
// takes the recorder's lock only under its own; the recorder fires
// OnWave after releasing its lock.
type jobEvents struct {
	mu   sync.Mutex
	rec  *obs.Recorder // set before the job routes; nil for jobs that never route and after the end
	wake chan struct{} // closed and replaced on every wave, closed for good at the end
	// final holds the recorder's waves at the terminal transition: a
	// wave that a cancelled route still finishes after its job ended is
	// not streamed.
	final []obs.WaveSnapshot
	ended bool
}

func newJobEvents() *jobEvents {
	return &jobEvents{wake: make(chan struct{})}
}

// waveEvent is the JSON payload of one "wave" SSE frame: the per-wave
// convergence snapshot. StageNs carries wall-clock stage times and is
// telemetry only — it never enters cached results.
type waveEvent struct {
	Wave      int              `json:"wave"`
	Objective float64          `json:"objective"`
	Overflow  float64          `json:"overflow"`
	Solved    int              `json:"solved"`
	Skipped   int              `json:"skipped"`
	Repaired  int              `json:"repaired"`
	Escalated int              `json:"escalated"`
	StageNs   map[string]int64 `json:"stage_ns,omitempty"`
}

// doneEvent is the JSON payload of the terminal "done" SSE frame. For a
// successful job Metrics is the metrics section of the stored result —
// the SSE tests check it matches GET /v1/jobs/{id}/result exactly.
type doneEvent struct {
	Status  JobStatus       `json:"status"`
	Error   string          `json:"error,omitempty"`
	Metrics json.RawMessage `json:"metrics,omitempty"`
}

// record attaches the recorder whose waves the stream reads. It does
// nothing once the stream has ended (a job cancelled before it routes),
// so a terminal job never pins a recorder.
func (e *jobEvents) record(rec *obs.Recorder) {
	e.mu.Lock()
	if !e.ended {
		e.rec = rec
	}
	e.mu.Unlock()
}

// onWave wakes every waiting subscriber. Called from the recorder's
// OnWave callback on the wave barrier, so it must never block.
func (e *jobEvents) onWave() {
	e.mu.Lock()
	if !e.ended {
		close(e.wake)
		e.wake = make(chan struct{})
	}
	e.mu.Unlock()
}

// end freezes the stream at the job's terminal transition and wakes
// every subscriber for the last time. It drops the recorder: a retained
// terminal job keeps only its wave snapshots, never the route's spans.
func (e *jobEvents) end() {
	e.mu.Lock()
	if !e.ended {
		e.final, e.ended = e.rec.Waves(), true
		e.rec = nil
		close(e.wake)
	}
	e.mu.Unlock()
}

// waves returns the wave snapshots streamed so far, a channel closed
// when there is more to read, and whether the stream has ended (no
// wave follows the returned ones).
func (e *jobEvents) waves() ([]obs.WaveSnapshot, <-chan struct{}, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ended {
		return e.final, e.wake, true
	}
	return e.rec.Waves(), e.wake, false
}

// waveFrame is the data of one "wave" frame.
func waveFrame(ws obs.WaveSnapshot) ([]byte, error) {
	stage := make(map[string]int64, obs.NumStages)
	for st := obs.Stage(0); int(st) < obs.NumStages; st++ {
		if ns := ws.StageNanos[st]; ns > 0 {
			stage[st.String()] = ns
		}
	}
	return json.Marshal(waveEvent{
		Wave: ws.Wave, Objective: ws.Objective, Overflow: ws.Overflow,
		Solved: ws.Solved, Skipped: ws.Skipped,
		Repaired: ws.Repaired, Escalated: ws.Escalated, StageNs: stage,
	})
}

// doneFrame is the data of the terminal "done" frame of a job in the
// given state. For a done job the metrics section is lifted verbatim
// from the stored result, so the frame agrees byte for byte with the
// result endpoint. Every subscriber builds its own done frame.
func doneFrame(st JobStatus, result []byte, errMsg string) []byte {
	ev := doneEvent{Status: st, Error: errMsg}
	if st == JobDone && len(result) > 0 {
		ev.Metrics = metricsSection(result)
	}
	data, err := json.Marshal(ev)
	if err != nil {
		data = []byte(`{"status":"` + string(st) + `"}`)
	}
	return data
}

// metricsSection returns the raw metrics section of a stored result, or
// nil. The result writer puts the section first, so the decoder stops
// before the trees: a done frame costs the same at any result size.
func metricsSection(result []byte) json.RawMessage {
	dec := json.NewDecoder(bytes.NewReader(result))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil
	}
	for dec.More() {
		key, err := dec.Token()
		var val json.RawMessage
		if err != nil || dec.Decode(&val) != nil {
			return nil
		}
		if key == "metrics" {
			return val
		}
	}
	return nil
}

// handleJobEvents streams a job's per-wave telemetry as server-sent
// events: one "wave" event per routing wave and a final "done" event
// carrying the result's metrics section (or the failure). Subscribers
// may attach at any time — the full history is replayed first, so a
// consumer that connects after completion still receives every event.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	s.met.sseSubscribers.Add(1)
	defer s.met.sseSubscribers.Add(-1)
	send := func(name string, data []byte) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
		s.met.sseEvents.Add(1)
	}
	for sent := 0; ; {
		waves, wake, ended := job.events.waves()
		for _, ws := range waves[sent:] {
			if data, err := waveFrame(ws); err == nil {
				send("wave", data)
			}
		}
		sent = len(waves)
		if ended {
			// end runs after the terminal transition, so view reads the
			// terminal state.
			send("done", doneFrame(job.view()))
		}
		fl.Flush()
		if ended {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}

package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"costdist"
)

// submitRoute posts a route request and returns the created job view.
func submitRoute(t *testing.T, url string, body string) JobView {
	t.Helper()
	resp := post(t, url+"/v1/route", []byte(body))
	b := readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("route submit: status %d: %s", resp.StatusCode, b)
	}
	var jv JobView
	if err := json.Unmarshal(b, &jv); err != nil {
		t.Fatal(err)
	}
	return jv
}

// waitResult polls a job to completion and returns its result body.
func waitResult(t *testing.T, url, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobView
		if err := json.Unmarshal(readBody(t, resp), &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == JobDone {
			break
		}
		if st.Status.terminal() {
			t.Fatalf("job %s ended %s: %s", id, st.Status, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, err := http.Get(url + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	b := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp.StatusCode, b)
	}
	return b
}

// resultMetrics decodes the metrics row of a marshaled route result.
func resultMetrics(t *testing.T, body []byte) costdist.RouteMetricsJSON {
	t.Helper()
	var out struct {
		Metrics costdist.RouteMetricsJSON `json:"metrics"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.Metrics
}

// A base_job warm start must reuse the retained checkpoint: the
// perturbed rerun skips most nets, reports the warm-start hit in
// /metrics, and its result is byte-identical to the library
// RouteChipFrom path with the same inputs.
func TestRouteWarmStartFromBaseJob(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	cold := submitRoute(t, ts.URL, `{"chip":"c1","scale":0.002,"waves":2,"oracle":"cd"}`)
	coldBody := waitResult(t, ts.URL, cold.ID)
	coldMetrics := resultMetrics(t, coldBody)

	warm := submitRoute(t, ts.URL,
		`{"chip":"c1","scale":0.002,"waves":2,"oracle":"cd","base_job":"`+cold.ID+`","perturb_frac":0.05,"perturb_seed":9}`)
	warmBody := waitResult(t, ts.URL, warm.ID)
	warmMetrics := resultMetrics(t, warmBody)

	if warmMetrics.NetsSkipped == 0 {
		t.Fatalf("warm start skipped no nets: %+v", warmMetrics)
	}
	if warmMetrics.NetsSolved >= coldMetrics.NetsSolved {
		t.Fatalf("warm start saved nothing: %d solves vs cold %d",
			warmMetrics.NetsSolved, coldMetrics.NetsSolved)
	}

	// Library reference: same chip, same perturbation, warm-started
	// from the cold run's checkpoint.
	spec := chipByName(t, 0.002, "c1")
	chip, err := costdist.GenerateChip(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := costdist.DefaultRouterOptions()
	opt.Waves = 2
	opt.Threads = 1
	opt.Seed = 1
	// The service records telemetry on every route; the per-wave series
	// it adds to the wire form are deterministic, so a recorded
	// reference run reproduces the service bytes exactly.
	opt.Recorder = costdist.NewRecorder()
	_, st, err := costdist.RouteChipCheckpoint(chip, costdist.CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	pert, _, err := costdist.PerturbChip(chip, 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh recorder for the warm leg — the service creates one per
	// job, and a reused recorder would accumulate the cold run's waves.
	opt.Recorder = costdist.NewRecorder()
	res, _, err := costdist.RouteChipFrom(st, pert, costdist.CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := costdist.MarshalRouteResult(pert, res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warmBody, want) {
		t.Fatalf("service warm-start result differs from library RouteChipFrom (%d vs %d bytes)",
			len(warmBody), len(want))
	}

	// The hit is visible on /metrics, and the checkpoint store retains
	// both runs' checkpoints.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mb)
	if !strings.Contains(text, `routed_warm_starts_total{outcome="hit"} 1`) {
		t.Fatalf("warm-start hit not reported:\n%s", text)
	}
	if !strings.Contains(text, "routed_warm_start_nets_reused_total "+
		jsonInt(warmMetrics.NetsSkipped)) {
		t.Fatalf("nets-reused counter missing or wrong:\n%s", text)
	}
	if cps := s.checkpoints.Stats(); cps.Entries < 2 {
		t.Fatalf("checkpoint store retains %d entries, want ≥ 2", cps.Entries)
	}
}

func jsonInt(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// An unknown (or evicted) base_job must fall back to a cold route and
// count a warm-start miss — clients always get a correct answer. The
// fallback result must not be cached: its key includes base_job, and
// pinning the cold outcome would keep serving it even after the base
// state becomes available.
func TestRouteWarmStartUnknownBaseFallsBackCold(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"chip":"c2","scale":0.002,"waves":2,"oracle":"cd","base_job":"job-999999"}`
	jv := submitRoute(t, ts.URL, req)
	body := waitResult(t, ts.URL, jv.ID)
	m := resultMetrics(t, body)
	if m.NetsSolved == 0 {
		t.Fatalf("fallback cold route solved nothing: %+v", m)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mb), `routed_warm_starts_total{outcome="miss"} 1`) {
		t.Fatalf("warm-start miss not reported:\n%s", mb)
	}
	// Resubmission of the fallback request is not a cache hit.
	resp := post(t, ts.URL+"/v1/route", []byte(req))
	readBody(t, resp)
	if got := resp.Header.Get("X-Cache"); got == "hit" {
		t.Fatal("warm-miss fallback result was cached")
	}
}

// A base_job whose checkpoint binds a different grid (another scale)
// must fall back cold and count a miss, never fail the job.
func TestRouteWarmStartIncompatibleBaseFallsBackCold(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := submitRoute(t, ts.URL, `{"chip":"c1","scale":0.002,"waves":2}`)
	waitResult(t, ts.URL, base.ID)
	warm := submitRoute(t, ts.URL,
		`{"chip":"c1","scale":0.005,"waves":2,"base_job":"`+base.ID+`"}`)
	body := waitResult(t, ts.URL, warm.ID) // would fail the job without the fallback
	m := resultMetrics(t, body)
	if m.NetsSolved == 0 || m.NetsSkipped != 0 {
		t.Fatalf("incompatible base did not route cold: %+v", m)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mb), `routed_warm_starts_total{outcome="miss"} 1`) {
		t.Fatalf("incompatible base not counted as miss:\n%s", mb)
	}
}

// With checkpoint retention disabled every base_job request misses and
// falls back cold — and jobs still complete normally.
func TestRouteWarmStartDisabledStore(t *testing.T) {
	_, ts := newTestServer(t, Config{CheckpointBytes: -1})
	cold := submitRoute(t, ts.URL, `{"chip":"c1","scale":0.002,"waves":2}`)
	waitResult(t, ts.URL, cold.ID)
	warm := submitRoute(t, ts.URL,
		`{"chip":"c1","scale":0.002,"waves":2,"base_job":"`+cold.ID+`"}`)
	body := waitResult(t, ts.URL, warm.ID)
	if m := resultMetrics(t, body); m.NetsSkipped != 0 {
		t.Fatalf("disabled store still warm-started: %+v", m)
	}
}

// A zero-perturbation warm start through the service is the end-to-end
// form of the library's no-op property: the rerun solves nothing.
func TestRouteWarmStartZeroPerturbation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cold := submitRoute(t, ts.URL, `{"chip":"c1","scale":0.002,"waves":2}`)
	waitResult(t, ts.URL, cold.ID)
	warm := submitRoute(t, ts.URL,
		`{"chip":"c1","scale":0.002,"waves":2,"base_job":"`+cold.ID+`"}`)
	body := waitResult(t, ts.URL, warm.ID)
	m := resultMetrics(t, body)
	if m.NetsSolved != 0 {
		t.Fatalf("unperturbed warm start solved %d nets", m.NetsSolved)
	}
	if m.NetsSkipped == 0 {
		t.Fatal("unperturbed warm start reported no skips")
	}
}

// An explicit negative repair_tol forces the rung off, and off is the
// default: the request silent about repair_tol is served from the
// explicit-off request's cache entry.
func TestRouteRepairTolDefaultAndExplicitOff(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cold := submitRoute(t, ts.URL, `{"chip":"c1","scale":0.002,"waves":2,"oracle":"cd","incremental":true}`)
	waitResult(t, ts.URL, cold.ID)

	warmReq := `{"chip":"c1","scale":0.002,"waves":2,"oracle":"cd","incremental":true,"base_job":"` + cold.ID + `","perturb_frac":0.1,"perturb_seed":5`
	on := submitRoute(t, ts.URL, warmReq+`,"repair_tol":0.25}`)
	wm := resultMetrics(t, waitResult(t, ts.URL, on.ID))
	if wm.NetsRepaired == 0 {
		t.Fatalf("repair_tol 0.25 did not engage the rung: %+v", wm)
	}

	off := submitRoute(t, ts.URL, warmReq+`,"repair_tol":-1}`)
	om := resultMetrics(t, waitResult(t, ts.URL, off.ID))
	if om.NetsRepaired != 0 || om.RepairEscalated != 0 {
		t.Fatalf("explicit repair_tol -1 did not force the rung off: %+v", om)
	}
	if om.NetsSolved <= wm.NetsSolved {
		t.Fatalf("repair-less warm start should solve more nets: %d vs %d",
			om.NetsSolved, wm.NetsSolved)
	}

	resp := post(t, ts.URL+"/v1/route", []byte(warmReq+`}`))
	readBody(t, resp)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("request without repair_tol missed the explicit-off entry: X-Cache = %q", got)
	}
}

// The rung is the request's to turn on: a request-level repair_tol
// engages it, and that request is not the one without repair_tol.
func TestRouteRepairTolRequestLevel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cold := submitRoute(t, ts.URL, `{"chip":"c1","scale":0.002,"waves":2,"oracle":"cd","incremental":true}`)
	waitResult(t, ts.URL, cold.ID)

	warmReq := `{"chip":"c1","scale":0.002,"waves":2,"oracle":"cd","incremental":true,"base_job":"` + cold.ID + `","perturb_frac":0.1,"perturb_seed":5`
	plain := submitRoute(t, ts.URL, warmReq+`}`)
	pm := resultMetrics(t, waitResult(t, ts.URL, plain.ID))
	if pm.NetsRepaired != 0 || pm.RepairEscalated != 0 {
		t.Fatalf("rung engaged without repair_tol: %+v", pm)
	}

	resp := post(t, ts.URL+"/v1/route", []byte(warmReq+`,"repair_tol":0.25}`))
	var repair JobView
	if err := json.Unmarshal(readBody(t, resp), &repair); err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("request with repair_tol shared the key of the one without: X-Cache = %q", got)
	}
	if rm := resultMetrics(t, waitResult(t, ts.URL, repair.ID)); rm.NetsRepaired == 0 {
		t.Fatalf("request-level repair_tol did not engage the rung: %+v", rm)
	}
}

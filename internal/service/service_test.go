package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"costdist"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, ts, stop := startTestServer(t, cfg)
	t.Cleanup(stop)
	return s, ts
}

// startTestServer is newTestServer for tests that stop the server
// themselves, before the test ends.
func startTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, func()) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, ts, func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}
}

func corpusFile(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "instances", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func post(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSolveBadJSONIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{"{", "not json", `[1,2,3]`} {
		resp := post(t, ts.URL+"/v1/solve", []byte(body))
		readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// "auto" named a per-net selector that no longer exists.
func TestSolveUnknownMethodIs422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, method := range []string{"bogus", "auto"} {
		req, _ := json.Marshal(SolveRequest{Method: method, Instance: corpusFile(t, "small.json")})
		resp := post(t, ts.URL+"/v1/solve", req)
		body := string(readBody(t, resp))
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422 (body %s)", method, resp.StatusCode, body)
		}
		// The error must advertise the valid oracle set.
		if want := fmt.Sprint(costdist.MethodNames()); !strings.Contains(body, want) {
			t.Fatalf("422 body %q does not list %s", body, want)
		}
	}
}

func TestSolveSemanticErrorIs422(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	// threeSinks is a 16×16×4 document whose sink 1 carries weight w;
	// eta is spliced in verbatim.
	threeSinks := func(w, eta string) string {
		return `{"nx":16,"ny":16,"layers":4,"root":[2,2,0],"sinks":[{"x":12,"y":3,"l":0,"w":0.01},` +
			`{"x":7,"y":13,"l":0,"w":` + w + `},{"x":14,"y":14,"l":0,"w":0.02}]` + eta + `}`
	}
	rows := []struct{ body, want string }{
		{`{"nx":4,"ny":4,"layers":2,"root":[99,0,0],"sinks":[{"x":1,"y":1,"l":0,"w":1}]}`, "pin (99,0,0) outside grid"},
		{`{"nx":-5,"ny":-5,"layers":2,"root":[0,0,0],"sinks":[{"x":1,"y":1,"l":0,"w":1}]}`, ""},
		// Each of these three used to be accepted: the first solved to
		// objective −31 737, the second to −Inf, the third failed in
		// core with "no events left".
		{threeSinks("-1", ""), "sink 1: costdist: weight -1 outside [0, 1e+06]"},
		{threeSinks("-1e308", ""), "sink 1: costdist: weight -1e+308 outside"},
		{threeSinks("1e308", ""), "sink 1: costdist: weight 1e+308 outside"},
		{threeSinks("1000001", ""), "sink 1: costdist: weight 1.000001e+06 outside"},
		{threeSinks("0.01", `,"eta":-0.25`), "costdist: eta -0.25 outside [0, 0.5]"},
		{threeSinks("0.01", `,"eta":0.75`), "costdist: eta 0.75 outside [0, 0.5]"},
	}
	for _, r := range rows {
		resp := post(t, ts.URL+"/v1/solve", []byte(r.body))
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("body %s: status %d, want 422", r.body, resp.StatusCode)
		}
		if !strings.Contains(string(body), r.want) {
			t.Fatalf("body %s: reply %s does not say %q", r.body, body, r.want)
		}
	}
	// A stack beyond the int8 layer of a routing arc is refused before
	// the lookup; 128 layers used to be the last stack that did not panic.
	for _, layers := range []string{"129", "1024"} {
		body := `{"nx":4,"ny":4,"layers":` + layers + `,"root":[0,0,0],"sinks":[{"x":3,"y":3,"l":1,"w":0.01}]}`
		resp := post(t, ts.URL+"/v1/solve", []byte(body))
		reply := readBody(t, resp)
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(reply), "layers, at most 128") {
			t.Fatalf("body %s: status %d, reply %s; want 422 naming the 128-layer cap", body, resp.StatusCode, reply)
		}
	}
	// Pins, weights and eta are checked after the cache lookup (one miss
	// for every row but the second); impossible dimensions and layer
	// stacks never reach it. No refused document counts as a solve.
	if cs := srv.CacheStats(); cs.Misses != int64(len(rows)-1) {
		t.Fatalf("invalid requests counted %d cache misses, want %d", cs.Misses, len(rows)-1)
	}
	if n := srv.met.solveRequests.Load(); n != 0 {
		t.Fatalf("invalid requests counted %d solve requests, want 0", n)
	}
}

// A bare instance document POSTed to /v1/solve must produce a response
// byte-identical to the library path: ParseInstance → SolveCD →
// MarshalTree. This is the service's core guarantee — HTTP serving
// never changes results, so the paper's approximation bounds certified
// by the differential harness apply to every response.
func TestSolveByteIdenticalToLibraryAndCached(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	for _, name := range []string{"small.json", "twopin.json", "congested.json"} {
		doc := corpusFile(t, name)
		in, err := costdist.ParseInstance(doc)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := costdist.SolveCD(in, costdist.DefaultCDOptions())
		if err != nil {
			t.Fatal(err)
		}
		want, err := costdist.MarshalTree(in, tr)
		if err != nil {
			t.Fatal(err)
		}

		resp := post(t, ts.URL+"/v1/solve", doc)
		got := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, got)
		}
		if resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("%s: first request X-Cache = %q, want miss", name, resp.Header.Get("X-Cache"))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: service response differs from library MarshalTree/SolveCD:\nservice %s\nlibrary %s", name, got, want)
		}

		// Resubmitting with different formatting must hit the cache and
		// return the identical bytes.
		var v map[string]any
		if err := json.Unmarshal(doc, &v); err != nil {
			t.Fatal(err)
		}
		reordered, _ := json.MarshalIndent(v, "", "    ") // map order + whitespace differ
		wrapped, _ := json.Marshal(SolveRequest{Method: "cd", Instance: reordered})
		resp = post(t, ts.URL+"/v1/solve", wrapped)
		got = readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s resubmit: status %d: %s", name, resp.StatusCode, got)
		}
		if resp.Header.Get("X-Cache") != "hit" {
			t.Fatalf("%s resubmit: X-Cache = %q, want hit", name, resp.Header.Get("X-Cache"))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: cached response differs from library output", name)
		}
	}
	cs := srv.CacheStats()
	if cs.Hits < 3 || cs.Misses < 3 {
		t.Fatalf("cache counters off: %+v", cs)
	}
}

// Simultaneous identical misses are solved once: the first registers a
// claim on its content address and submits, and every duplicate waits
// for that claim's outcome and replies as a hit from the entry it
// wrote. A document Build refuses gives every copy the same 422 and
// charges no solve. Run under -race in CI.
func TestSolveConcurrentIdenticalSolvedOnce(t *testing.T) {
	refused := []byte(fmt.Sprintf(`{"nx":8,"ny":8,"layers":2,"root":[0,0,0],"sinks":[{"x":5,"y":5,"l":0,"w":%g}]}`,
		2*costdist.MaxSinkWeight))
	docs := [][]byte{corpusFile(t, "small.json"), corpusFile(t, "twopin.json"), corpusFile(t, "congested.json"), refused}
	for round := 0; round < 21; round++ {
		doc := docs[round%len(docs)]
		concurrentIdenticalRound(t, round, doc, bytes.Equal(doc, refused))
	}
}

// concurrentIdenticalRound fires 32 simultaneous copies of doc at a
// fresh server and shuts it down before returning; refused says Build
// refuses doc.
func concurrentIdenticalRound(t *testing.T, round int, doc []byte, refused bool) {
	t.Helper()
	_, ts, stop := startTestServer(t, Config{Shards: 4})
	defer stop()

	type reply struct {
		status int
		xcache string
		body   []byte
		err    error
	}
	replies := make([]reply, 32)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func(r *reply) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(doc))
			if err != nil {
				r.err = err
				return
			}
			defer resp.Body.Close()
			r.status, r.xcache = resp.StatusCode, resp.Header.Get("X-Cache")
			r.body, r.err = io.ReadAll(resp.Body)
		}(&replies[i])
	}
	close(start)
	wg.Wait()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody := string(readBody(t, mresp))
	if refused {
		for i, r := range replies {
			if r.err != nil || r.status != http.StatusUnprocessableEntity || !bytes.Equal(r.body, replies[0].body) {
				t.Fatalf("round %d client %d: status %d err %v: %s; want client 0's 422 %s",
					round, i, r.status, r.err, r.body, replies[0].body)
			}
		}
		if strings.Contains(mbody, "routed_solves_total{") {
			t.Fatalf("round %d: a refused document charged a solve:\n%s", round, mbody)
		}
		return
	}
	misses, hits := 0, 0
	for i, r := range replies {
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("round %d client %d: status %d err %v: %s", round, i, r.status, r.err, r.body)
		}
		if !bytes.Equal(r.body, replies[0].body) {
			t.Fatalf("round %d client %d: body differs from client 0", round, i)
		}
		switch r.xcache {
		case "miss":
			misses++
		case "hit":
			hits++
		default:
			t.Fatalf("round %d client %d: X-Cache = %q", round, i, r.xcache)
		}
	}
	if misses != 1 {
		t.Fatalf("round %d: %d replies with X-Cache: miss, want exactly 1", round, misses)
	}
	for _, want := range []string{
		"routed_solves_total{oracle=\"cd\"} 1\n",
		fmt.Sprintf("routed_cache_hits_total %d\n", hits),
	} {
		if !strings.Contains(mbody, want) {
			t.Fatalf("round %d: metrics missing %q:\n%s", round, want, mbody)
		}
	}
}

// Job lifecycle: 202 on submit, queued/running on poll, 200 result once
// done — and the result is byte-identical to the library RouteChip run
// marshaled with MarshalRouteResult.
func TestRouteJobLifecycleAndByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := []byte(`{"chip":"c1","scale":0.002,"waves":2,"oracle":"cd"}`)
	resp := post(t, ts.URL+"/v1/route", req)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202: %s", resp.StatusCode, body)
	}
	var jv JobView
	if err := json.Unmarshal(body, &jv); err != nil {
		t.Fatal(err)
	}
	if jv.ID == "" {
		t.Fatalf("no job id in %s", body)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + jv.ID)
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
		if st.Status == JobFailed || st.Status == JobCancelled {
			t.Fatalf("job ended %s: %s", st.Status, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + jv.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp.StatusCode, got)
	}

	// Library reference with the same resolved options.
	spec := chipByName(t, 0.002, "c1")
	chip, err := costdist.GenerateChip(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := costdist.DefaultRouterOptions()
	opt.Waves = 2
	opt.Threads = 1
	opt.Seed = 1
	// The service routes with a telemetry recorder attached, which adds
	// the deterministic per-wave series to the wire form; the reference
	// run records too so the comparison stays byte-exact.
	opt.Recorder = costdist.NewRecorder()
	res, err := costdist.RouteChip(chip, costdist.CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := costdist.MarshalRouteResult(chip, res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("service route result differs from library RouteChip output (%d vs %d bytes)", len(got), len(want))
	}

	// Resubmission of the identical request is a cache hit: the job is
	// born done.
	resp = post(t, ts.URL+"/v1/route", req)
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("resubmit: status %d X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
	if err := json.Unmarshal(body, &jv); err != nil {
		t.Fatal(err)
	}
	if jv.Status != JobDone {
		t.Fatalf("cached resubmit status %s, want done", jv.Status)
	}

	// Thread count never changes results (locked by the route
	// determinism tests), so it must not split the cache either.
	resp = post(t, ts.URL+"/v1/route", []byte(`{"chip":"c1","scale":0.002,"waves":2,"oracle":"cd","threads":2}`))
	readBody(t, resp)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("different threads missed the cache: X-Cache = %q", resp.Header.Get("X-Cache"))
	}
}

func chipByName(t *testing.T, scale float64, name string) costdist.ChipSpec {
	t.Helper()
	spec, ok := costdist.ChipSpecByName(name, scale)
	if !ok {
		t.Fatalf("no chip %q", name)
	}
	return spec
}

// A tiny body must not be able to demand a huge grid allocation: the
// vertex cap rejects it before ParseInstance builds anything.
func TestSolveOversizedGridIs422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"nx":40000,"ny":40000,"layers":8,"root":[0,0,0],"sinks":[{"x":1,"y":1,"l":0,"w":1}]}`,
		`{"nx":2000000000,"ny":2000000000,"layers":2,"root":[0,0,0],"sinks":[]}`,
		`{"nx":4,"ny":4,"layers":9000000000000000000,"root":[0,0,0],"sinks":[]}`,
	} {
		resp := post(t, ts.URL+"/v1/solve", []byte(body))
		readBody(t, resp)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("oversized grid: status %d, want 422", resp.StatusCode)
		}
	}
}

// A body one byte over maxBodyBytes is 413 on both POST endpoints, and
// the error names the limit: the request is too large, not malformed.
func TestOversizedBodyIs413(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	body := bytes.Repeat([]byte(" "), maxBodyBytes+1)
	for _, path := range []string{"/v1/solve", "/v1/route"} {
		resp := post(t, ts.URL+path, body)
		msg := string(readBody(t, resp))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413 (body %s)", path, resp.StatusCode, msg)
		}
		if want := fmt.Sprint(maxBodyBytes); !strings.Contains(msg, want) {
			t.Fatalf("%s: 413 body %q does not name the %s-byte limit", path, msg, want)
		}
	}
	if n := srv.met.badRequests.Load(); n != 2 {
		t.Fatalf("routed_bad_requests_total %d after two oversized bodies, want 2", n)
	}
}

// An identical route request submitted while the first is still running
// must follow the in-flight job instead of re-running the route.
func TestRouteDuplicateInFlightIsDeduplicated(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := []byte(`{"chip":"c1","scale":0.02,"waves":12,"seed":42}`)
	first := post(t, ts.URL+"/v1/route", req)
	var leader JobView
	if err := json.Unmarshal(readBody(t, first), &leader); err != nil {
		t.Fatal(err)
	}
	second := post(t, ts.URL+"/v1/route", req)
	var follower JobView
	if err := json.Unmarshal(readBody(t, second), &follower); err != nil {
		t.Fatal(err)
	}
	if hdr := second.Header.Get("X-Cache"); hdr != "dedup" {
		t.Skipf("leader finished before the duplicate arrived (X-Cache %q)", hdr)
	}

	// Cancel the leader; the follower must mirror the outcome rather
	// than hang or silently start its own route.
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+leader.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, dresp)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + follower.ID)
		if err != nil {
			t.Fatal(err)
		}
		var st JobView
		if err := json.Unmarshal(readBody(t, resp), &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == JobFailed {
			if !strings.Contains(st.Error, leader.ID) {
				t.Fatalf("follower error %q does not reference leader %s", st.Error, leader.ID)
			}
			break
		}
		if st.Status == JobDone {
			t.Skip("leader completed before the cancel landed")
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck in %s after leader cancel", st.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRouteUnknownChipAndOracleAre422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ body, want string }{
		{`{"chip":"c99"}`, ""},
		{`{"chip":"c1","oracle":"bogus"}`, fmt.Sprint(costdist.MethodNames())},
		{`{"chip":"c1","oracle":"auto"}`, fmt.Sprint(costdist.MethodNames())},
	} {
		resp := post(t, ts.URL+"/v1/route", []byte(tc.body))
		msg := string(readBody(t, resp))
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("body %s: status %d, want 422", tc.body, resp.StatusCode)
		}
		if !strings.Contains(msg, tc.want) {
			t.Fatalf("body %s: reply %q does not list %s", tc.body, msg, tc.want)
		}
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		readBody(t, resp)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// Cancelling a running job must take effect promptly: the DELETE
// response already reports cancelled, a status poll agrees within
// 100ms, and the worker abandons the route at the next per-net
// cancellation point so shutdown is not held up by the dead job.
func TestJobCancelReturnsPromptly(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := post(t, ts.URL+"/v1/route", []byte(`{"chip":"c1","scale":0.02,"waves":12}`))
	var jv JobView
	if err := json.Unmarshal(readBody(t, resp), &jv); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}

	// Let it reach running (or finish queued→running quickly).
	time.Sleep(50 * time.Millisecond)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+jv.ID, nil)
	start := time.Now()
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var after JobView
	if err := json.Unmarshal(readBody(t, dresp), &after); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("cancel took %v, want < 100ms", elapsed)
	}
	if after.Status == JobDone {
		// The route outran the cancel — possible on a fast machine.
		// Nothing left to assert; the prompt-cancel path is also locked
		// by TestRouteChipCtxCancellation at the library layer.
		t.Skip("job finished before the cancel landed")
	}
	if after.Status != JobCancelled {
		t.Fatalf("status after DELETE = %s, want cancelled", after.Status)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + jv.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of cancelled job: status %d, want 409", resp.StatusCode)
	}
	// Cleanup's Shutdown (10s budget) verifies the worker actually let
	// go of the cancelled route.
}

// Concurrent submits racing server shutdown must never panic or
// deadlock; every response is a success, a 503, or a transport error
// from the dying test server. Run under -race in CI.
func TestConcurrentSubmitsVsShutdown(t *testing.T) {
	s, err := New(Config{Shards: 4, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	doc := corpusFile(t, "small.json")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				// Unique seeds defeat the cache so submits keep hitting
				// the pool; route jobs, each on its own perturbation of
				// the chip, mix in queue churn.
				if i%4 == 0 {
					resp, err := http.Post(ts.URL+"/v1/route", "application/json",
						strings.NewReader(`{"chip":"c1","scale":0.002,"waves":1,"perturb_frac":0.01,"perturb_seed":`+fmt.Sprint(1000*i+n+1)+`}`))
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					continue
				}
				body := bytes.Replace(doc, []byte(`"seed": 7`), []byte(fmt.Sprintf(`"seed": %d`, 1000*i+n)), 1)
				resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
				if err != nil {
					continue // server shutting down mid-request
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("unexpected status %d", resp.StatusCode)
					return
				}
			}
		}(i)
	}
	time.Sleep(300 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown under load: %v", err)
	}
	close(stop)
	wg.Wait()
	ts.Close()
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := post(t, ts.URL+"/v1/solve", corpusFile(t, "small.json"))
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody := string(readBody(t, hresp))
	if hresp.StatusCode != http.StatusOK || !strings.Contains(hbody, `"status":"ok"`) {
		t.Fatalf("healthz: %d %s", hresp.StatusCode, hbody)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody := string(readBody(t, mresp))
	for _, want := range []string{
		`routed_requests_total{endpoint="solve"} 1`,
		`routed_cache_misses_total 1`,
		`routed_solves_total{oracle="cd"} 1`,
		`routed_queue_depth`,
		`routed_solve_latency_seconds_bucket{le="+Inf"} 1`,
		`routed_solve_latency_seconds_count 1`,
	} {
		if !strings.Contains(mbody, want) {
			t.Fatalf("metrics missing %q:\n%s", want, mbody)
		}
	}
}

package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"

	"costdist"
)

// panicOnSite matches the frame an error names for a panic of panicOn's
// fault: its closure, which is named after the test panicOn is inlined
// into, if it is.
const panicOnSite = ` at costdist/internal/service\.(?:\w+\.)?panicOn\.func\d+ \(solve_miss_test\.go:\d+\)`

// shapeDoc draws an instance document of the given shape from seed:
// a root and sinks pins inside one box of at most 16×16 gcells, and six
// priced rectangles, which the grid edge may clip.
func shapeDoc(seed uint64, nx, ny int32, layers, sinks int) []byte {
	rng := rand.New(rand.NewPCG(seed, 0xD0C))
	box := min(nx, ny, 16)
	bx, by := rng.Int32N(nx-box+1), rng.Int32N(ny-box+1)
	pin := func() string {
		return fmt.Sprintf(`"x":%d,"y":%d,"l":%d`, bx+rng.Int32N(box), by+rng.Int32N(box), rng.Int32N(int32(layers)))
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"nx":%d,"ny":%d,"layers":%d,"root":[%d,%d,0],"sinks":[`, nx, ny, layers, bx+rng.Int32N(box), by+rng.Int32N(box))
	for i := 0; i < sinks; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{%s,"w":%g}`, pin(), 0.01*rng.Float64())
	}
	fmt.Fprintf(&b, `],"dbif":-1,"seed":%d,"margin":6,"congestion":[`, seed)
	for k := 0; k < 6; k++ {
		if k > 0 {
			b.WriteByte(',')
		}
		x0, y0 := rng.Int32N(nx), rng.Int32N(ny)
		fmt.Fprintf(&b, `{"x0":%d,"y0":%d,"x1":%d,"y1":%d,"l":%d,"mult":%g}`,
			x0, y0, x0+2+rng.Int32N(14), y0+2+rng.Int32N(14), rng.Int32N(int32(layers)), 1.5+float64(rng.IntN(48))/8)
	}
	b.WriteString("]}")
	return []byte(b.String())
}

// libraryReply is the library path a /v1/solve reply must equal:
// ParseInstance → SolveCD → MarshalTree.
func libraryReply(t *testing.T, doc []byte) []byte {
	t.Helper()
	in, err := costdist.ParseInstance(doc)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := costdist.SolveCD(in, costdist.DefaultCDOptions())
	if err != nil {
		t.Fatal(err)
	}
	out, err := costdist.MarshalTree(in, tr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// serveDirect runs one request through Handler().ServeHTTP, without a
// listener.
func serveDirect(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// A /v1/solve miss on a warm worker allocates no grid: fixed 64×64×8
// documents through Handler().ServeHTTP cost at most 128 KB a miss —
// the request, the solve and the reply — where a fresh graph and
// multiplier array alone are 476 KB. Bytes are counted, not timed.
func TestSolveMissAllocationBound(t *testing.T) {
	s, _ := newTestServer(t, Config{Shards: 1})
	h := s.Handler()
	serve := func(seed uint64) {
		if rec := serveDirect(h, http.MethodPost, "/v1/solve", shapeDoc(seed, 64, 64, 8, 4)); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
			t.Fatalf("seed %d: status %d X-Cache %q: %s", seed, rec.Code, rec.Header().Get("X-Cache"), rec.Body)
		}
	}
	for seed := uint64(1); seed <= 4; seed++ { // warm the worker's arena and grid
		serve(seed)
	}
	const misses = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for seed := uint64(101); seed < 101+misses; seed++ {
		serve(seed)
	}
	runtime.ReadMemStats(&after)
	perMiss := (after.TotalAlloc - before.TotalAlloc) / misses
	if perMiss > 128<<10 {
		t.Fatalf("a /v1/solve miss allocated %d KB, want ≤ 128 KB", perMiss>>10)
	}
	t.Logf("a /v1/solve miss on a warm worker: %d KB", perMiss>>10)
}

// routed_solve_queue_wait_seconds is observed once per task a worker
// claims: after N misses and M handler-side hits its count is N.
func TestSolveQueueWaitCountsMisses(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	const n, m = 5, 3
	for seed := uint64(1); seed <= n; seed++ {
		if rec := serveDirect(h, http.MethodPost, "/v1/solve", shapeDoc(seed, 12, 10, 3, 3)); rec.Header().Get("X-Cache") != "miss" {
			t.Fatalf("seed %d: status %d X-Cache %q", seed, rec.Code, rec.Header().Get("X-Cache"))
		}
	}
	for seed := uint64(1); seed <= m; seed++ {
		if rec := serveDirect(h, http.MethodPost, "/v1/solve", shapeDoc(seed, 12, 10, 3, 3)); rec.Header().Get("X-Cache") != "hit" {
			t.Fatalf("repeat of seed %d: status %d X-Cache %q", seed, rec.Code, rec.Header().Get("X-Cache"))
		}
	}
	body := serveDirect(h, http.MethodGet, "/metrics", nil).Body.String()
	for _, want := range []string{
		fmt.Sprintf("routed_solve_queue_wait_seconds_count %d\n", n),
		fmt.Sprintf("routed_solve_latency_seconds_count %d\n", n+m),
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// A document Build refuses is refused on the worker, after the cache
// lookup: 422 with Build's own text, one cache miss, one queued task,
// and no solve request counted.
func TestSolveRejectedOnWorker(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	rec := serveDirect(h, http.MethodPost, "/v1/solve",
		[]byte(`{"nx":4,"ny":4,"layers":2,"root":[0,0,0],"sinks":[{"x":1,"y":9,"l":0,"w":1}]}`))
	if want := `{"error":"sink 0: costdist: pin (1,9,0) outside grid"}` + "\n"; rec.Code != http.StatusUnprocessableEntity || rec.Body.String() != want {
		t.Fatalf("status %d body %q, want 422 %q", rec.Code, rec.Body, want)
	}
	body := serveDirect(h, http.MethodGet, "/metrics", nil).Body.String()
	for _, want := range []string{
		`routed_requests_total{endpoint="solve"} 0`,
		"routed_cache_misses_total 1\n",
		"routed_bad_requests_total 1\n",
		"routed_solve_queue_wait_seconds_count 1\n",
		"routed_solve_latency_seconds_count 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// Two workers on one queue, fed interleaved shapes — two of them
// sharing nx×ny but not the layer count — rebuild and reuse their
// cached grids in every order; each reply still equals the library
// path byte for byte. Run under -race in CI.
func TestSolveInterleavedShapesMatchLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2})
	shapes := []struct {
		nx, ny int32
		layers int
	}{{24, 24, 4}, {16, 20, 3}, {24, 24, 5}}
	var docs [][]byte
	for seed := uint64(1); seed <= 15; seed++ {
		sh := shapes[seed%uint64(len(shapes))]
		docs = append(docs, shapeDoc(seed, sh.nx, sh.ny, sh.layers, 2+int(seed%5)))
	}
	want := make([][]byte, len(docs))
	for i, doc := range docs {
		want[i] = libraryReply(t, doc)
	}
	got := make([][]byte, len(docs))
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(docs); i += 3 {
				resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(docs[i]))
				if err == nil {
					got[i], err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for i := range docs {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("document %d: reply differs from the library path:\nservice %s\nlibrary %s", i, got[i], want[i])
		}
	}
}

// panicOn makes every solve miss or route job whose content address is
// key panic on its worker; call it before the server serves that
// request.
func panicOn(t *testing.T, s *Server, key string) {
	t.Helper()
	s.fault = func(k string) {
		if k == key {
			panic("injected fault")
		}
	}
}

// A solve that panics costs its own request and the duplicates
// coalesced onto it, never the server: all 32 simultaneous copies get
// the same 500 and none hangs, and the workers, each on a fresh solver
// after its panic, still answer with the library's bytes.
func TestSolvePanicIsContained(t *testing.T) {
	s, _ := newTestServer(t, Config{Shards: 2})
	bad := corpusFile(t, "congested.json")
	call, rej := resolveSolve(s.cfg, bad)
	if rej != nil {
		t.Fatal(rej.msg)
	}
	panicOn(t, s, call.key)
	h := s.Handler()
	recs := make([]*httptest.ResponseRecorder, 32)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			recs[i] = serveDirect(h, http.MethodPost, "/v1/solve", bad)
		}(i)
	}
	close(start)
	wg.Wait()
	want := regexp.MustCompile(`^\{"error":"solve panicked: injected fault` + panicOnSite + `"\}\n$`)
	for i, rec := range recs {
		if rec.Code != http.StatusInternalServerError || !want.MatchString(rec.Body.String()) || rec.Body.String() != recs[0].Body.String() {
			t.Fatalf("client %d: status %d body %q, want 500 matching %s, as client 0", i, rec.Code, rec.Body, want)
		}
	}
	for _, doc := range [][]byte{corpusFile(t, "small.json"), corpusFile(t, "twopin.json"),
		shapeDoc(1, 24, 24, 4, 3), shapeDoc(2, 24, 24, 4, 5)} {
		rec := serveDirect(h, http.MethodPost, "/v1/solve", doc)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), libraryReply(t, doc)) {
			t.Fatalf("after the panics: status %d, reply differs from the library path: %s", rec.Code, rec.Body)
		}
	}
}

// A route job that panics ends failed with the panic text, and the
// server goes on answering solves with the library's bytes.
func TestRoutePanicFailsJob(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	body := []byte(`{"chip":"c1","scale":0.002,"waves":1}`)
	call, rej := resolveRoute(s.cfg, body)
	if rej != nil {
		t.Fatal(rej.msg)
	}
	panicOn(t, s, call.key)
	h := s.Handler()
	rec := serveDirect(h, http.MethodPost, "/v1/route", body)
	var v JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || rec.Code != http.StatusAccepted {
		t.Fatalf("route submit: status %d body %s (%v)", rec.Code, rec.Body, err)
	}
	jb, ok := s.jobs.get(v.ID)
	if !ok {
		t.Fatalf("job %s not registered", v.ID)
	}
	<-jb.done
	want := regexp.MustCompile(`^route panicked: injected fault` + panicOnSite + `$`)
	if st, _, errMsg := jb.view(); st != JobFailed || !want.MatchString(errMsg) {
		t.Fatalf("job ended %s %q, want failed matching %s", st, errMsg, want)
	}
	doc := corpusFile(t, "small.json")
	if rec := serveDirect(h, http.MethodPost, "/v1/solve", doc); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), libraryReply(t, doc)) {
		t.Fatalf("after the panic: status %d, reply differs from the library path: %s", rec.Code, rec.Body)
	}
}

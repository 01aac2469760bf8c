// Package service turns the costdist solver library into a long-running
// routing service: an HTTP JSON API backed by a worker pool that pulls
// from one bounded queue and reuses the library's scratch-arena
// machinery per worker, with a content-addressed LRU result cache in
// front. All solving goes through the same public costdist entry points
// as library callers, so service responses are bit-identical to library
// results — the approximation guarantees certified by the differential
// harness carry over to every response.
//
// Both POST handlers are read → resolve → cache → submit → reply. What a
// request means — defaults, bounds, equivalent spellings, its content
// address — is decided once, by the pure resolvers of resolve.go; a
// solve's instance document is decoded once and built only after a
// cache miss, by the pool worker on its solver's cached grid. "A hot
// instance is solved once" — and a route computed once — rests on one
// mechanism, a handler-side claim: the first miss of a content address
// claims it, re-checks the cache and submits, simultaneous duplicates
// wait for its outcome instead of queueing, and every terminal path
// releases the claim (see solveMiss and handleRoute).
//
// Endpoints:
//
//	POST   /v1/solve            solve one cost-distance instance (sync)
//	POST   /v1/route            start a chip routing job (async, 202)
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result job result (200 once done)
//	GET    /v1/jobs/{id}/events per-wave telemetry stream (SSE)
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /healthz             liveness + queue depth
//	GET    /metrics             Prometheus text metrics
//	GET    /debug/obs           flight-recorder span dump (JSON)
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"costdist"
	"costdist/internal/obs"
)

// maxBodyBytes bounds request bodies; instances big enough to exceed it
// should go through the library, not JSON-over-HTTP.
const maxBodyBytes = 16 << 20

// routeWorkers is the worker count of the route-job pool.
const routeWorkers = 2

// Config sizes the server. Zero values select the documented defaults.
type Config struct {
	// Shards is the number of solve workers, each with one scratch
	// arena and one cached instance grid; all of them pull from one
	// queue. Default (≤ 0): runtime.GOMAXPROCS(0), capped at 16.
	Shards int
	// QueueDepth bounds the solve queue, and separately the route-job
	// queue; a full queue answers 503 instead of buffering unboundedly.
	// Default: 128.
	QueueDepth int
	// CacheBytes is the result cache's byte budget (≤ 0 disables it
	// after defaulting; the zero value still means the default).
	// Default: 64 MiB.
	CacheBytes int64
	// CheckpointBytes is the byte budget of the warm-start checkpoint
	// store: every finished route job retains its marshaled RouterState
	// under this budget (evicted LRU), so later jobs can name it as
	// base_job and reroute only what changed. ≤ 0 after defaulting
	// disables retention (every warm start misses). Default: 128 MiB.
	CheckpointBytes int64
	// DefaultMethod is the oracle used when a request does not name
	// one. Default: "cd".
	DefaultMethod string
	// FlightSpans caps the flight-recorder ring holding the most recent
	// telemetry spans across all route jobs, dumped at GET /debug/obs.
	// Default: obs.DefaultRingSpans.
	FlightSpans int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards > 16 {
			c.Shards = 16
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.CheckpointBytes == 0 {
		c.CheckpointBytes = 128 << 20
	}
	if c.DefaultMethod == "" {
		c.DefaultMethod = "cd"
	}
	if c.FlightSpans <= 0 {
		c.FlightSpans = obs.DefaultRingSpans
	}
	return c
}

// Server is the routing service. Create with New, mount Handler() on an
// http.Server, stop with Shutdown.
type Server struct {
	cfg   Config
	cache *resultCache
	// checkpoints retains the marshaled RouterState of finished route
	// jobs, keyed by the job's content address (so identical requests
	// share one retained checkpoint). Bounded by CheckpointBytes,
	// evicted LRU.
	checkpoints *resultCache
	jobs        *jobRegistry
	// pool serves synchronous solves on Shards workers; routePool runs
	// asynchronous route jobs on routeWorkers workers of its own, so
	// long-running routes never share a queue or worker with
	// bounded-latency solves.
	pool      *pool
	routePool *pool
	met       *metrics
	// flight is the crash-forensics ring: the most recent telemetry
	// spans of every route job, dumped at GET /debug/obs.
	flight *obs.Ring
	mux    *http.ServeMux
	ctx    context.Context // root of every job/task context
	cancel context.CancelFunc
	// solveInflight maps solve cache keys to the *solveFlight of the
	// miss computing them; see solveMiss.
	solveInflight sync.Map
	// fault, when a test sets it before serving, runs on the worker at
	// the start of every solve miss and route job with the request's
	// content address; it is how tests inject a panicking task.
	fault func(key string)
}

// New validates the configuration and starts the worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if _, ok := costdist.MethodByName(cfg.DefaultMethod); !ok {
		return nil, fmt.Errorf("service: unknown default method %q (valid: %v)",
			cfg.DefaultMethod, costdist.MethodNames())
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		cache:       newResultCache(cfg.CacheBytes),
		checkpoints: newResultCache(cfg.CheckpointBytes),
		jobs:        newJobRegistry(),
		met:         newMetrics(),
		flight:      obs.NewRing(cfg.FlightSpans),
		ctx:         ctx,
		cancel:      cancel,
	}
	s.pool = newPool(ctx, cfg.Shards, cfg.QueueDepth)
	s.routePool = newPool(ctx, routeWorkers, cfg.QueueDepth)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/route", s.handleRoute)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/obs", s.handleDebugObs)
	return s, nil
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// CacheStats exposes the result-cache counters (tests and operators).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// Shutdown cancels every running job and queued task — the cancellation
// propagates into RouteChipCtx between nets, so workers stop within one
// solve latency — then waits for the workers to exit, bounded by ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cancel()
	s.jobs.cancelAll()
	done := make(chan struct{})
	go func() {
		s.pool.wait()
		s.routePool.wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// --- request/response schemas ---

// SolveRequest is the POST /v1/solve body. A bare InstanceJSON document
// (no "instance" key) is also accepted — the whole body is then the
// instance and the method defaults to the server's DefaultMethod, so
// the files under examples/instances can be POSTed as-is. Other members
// are ignored: every oracle runs at its one fixed parameterization, so
// a solve takes no options.
type SolveRequest struct {
	Method   string          `json:"method,omitempty"`
	Instance json.RawMessage `json:"instance,omitempty"`
}

// RouteRequest is the POST /v1/route body: a chip of the synthetic
// suite plus routing options. Defaults: scale 0.01, the server's
// default oracle, the library's default wave count, one routing thread
// per job (the pool provides the parallelism across jobs). A route
// draws no random number, so a request takes no seed: a "seed" member
// is ignored like any unknown one and does not split the cache.
//
// BaseJob names an earlier route job to warm-start from: the server
// restores that job's retained checkpoint, diffs the (possibly
// perturbed) chip against it and re-solves only the invalidated nets.
// A missing, evicted or grid-incompatible base checkpoint falls back
// to a cold route, counted in
// routed_warm_starts_total{outcome="miss"}; such fallback results are
// served but never cached (their key includes base_job, and the cache
// must stay a pure function of the request). PerturbFrac
// applies an ECO-style perturbation to the generated chip before
// routing (PerturbSeed drives it; see costdist.PerturbChip), which is
// how a client describes "the same chip, slightly changed" against the
// deterministic synthetic suite.
type RouteRequest struct {
	Chip        string  `json:"chip"`
	Scale       float64 `json:"scale,omitempty"`
	Oracle      string  `json:"oracle,omitempty"`
	Waves       int     `json:"waves,omitempty"`
	Threads     int     `json:"threads,omitempty"`
	Incremental bool    `json:"incremental,omitempty"`
	BaseJob     string  `json:"base_job,omitempty"`
	PerturbFrac float64 `json:"perturb_frac,omitempty"`
	PerturbSeed uint64  `json:"perturb_seed,omitempty"`
	// RepairTol sets RouterOptions.RepairTol — the escalation tolerance
	// of the incremental engine's topology-repair rung, which runs only
	// with Incremental or a BaseJob. Absent means the library default
	// (off), keeping legacy request bodies on their legacy content
	// addresses; negative values, and any value on a cold route without
	// Incremental, normalize to absent (every spelling that routes the
	// same shares one cache key).
	RepairTol *float64 `json:"repair_tol,omitempty"`
}

// JobView is the job status representation returned by the jobs
// endpoints.
type JobView struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
	Error  string    `json:"error,omitempty"`
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	if code >= 400 && code < 500 {
		s.met.badRequests.Add(1)
	}
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// writeBody writes a cached or freshly marshaled result body; xCache,
// when non-empty, says which of the two it was.
func writeBody(w http.ResponseWriter, xCache string, body []byte) {
	if xCache != "" {
		w.Header().Set("X-Cache", xCache)
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// readBody reads a bounded request body, answering itself on failure:
// 413 naming the limit for a body over maxBodyBytes, 400 otherwise.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		s.httpError(w, http.StatusRequestEntityTooLarge, "request body over the %d-byte limit", tooBig.Limit)
	case err != nil:
		s.httpError(w, http.StatusBadRequest, "reading body: %v", err)
	}
	return body, err == nil
}

// --- /v1/solve ---

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	call, rej := resolveSolve(s.cfg, body)
	if rej != nil {
		s.httpError(w, rej.status, "%s", rej.msg)
		return
	}
	if cached, hit := s.cache.Get(call.key); hit {
		writeBody(w, "hit", cached)
	} else if !s.solveMiss(w, r, call) {
		return
	}
	s.met.solveRequests.Add(1)
	s.met.solveLatency.Observe(time.Since(start).Seconds())
}

// solveFlight is one solve miss in flight; out is written once, before
// done closes.
type solveFlight struct {
	done chan struct{}
	out  solveOutcome
}

// solveOutcome is how a miss ends: a body to reply with, or an error
// reply's status and text.
type solveOutcome struct {
	body   []byte
	xCache string
	status int
	err    error
}

// solveMiss answers a request the handler's cache lookup missed; it
// reports false when it answered with an error instead (or the client
// left).
//
// "Solved once" is one handler-side claim, as for route jobs: the
// first miss of a content address registers a solveFlight, re-checks
// the cache (a flight may have landed between the lookup and the
// claim) and submits. Simultaneous duplicates find the claim, wait for
// its outcome and reply as hits from the entry it wrote, so they never
// take a queue slot or a worker. Every path lands the flight — a reply,
// a document Build refuses (422), a full queue (503), a panicking solve
// (500) — so a follower gets the leader's reply and never hangs; only
// shutdown strands a flight, and every waiter also watches the server
// context.
func (s *Server) solveMiss(w http.ResponseWriter, r *http.Request, c *solveCall) bool {
	f := &solveFlight{done: make(chan struct{})}
	lf, follower := s.solveInflight.LoadOrStore(c.key, f)
	if follower {
		f = lf.(*solveFlight)
	} else if cached, ok := s.cache.Recheck(c.key); ok {
		s.land(c.key, f, solveOutcome{body: cached, xCache: "hit"})
	} else if !s.pool.submit(s.solveTask(c, f)) {
		s.met.queueRejects.Add(1)
		s.land(c.key, f, solveOutcome{status: http.StatusServiceUnavailable, err: errors.New("solve queue full")})
	}
	select {
	case <-f.done:
	case <-r.Context().Done():
		return false // client gone; the worker still completes and fills the cache
	case <-s.ctx.Done():
		s.httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return false
	}
	o := f.out
	if o.err != nil {
		s.httpError(w, o.status, "%v", o.err)
		return false
	}
	if follower {
		// The leader's body is the entry it wrote; the lookup counts
		// this reply as the cache hit it is.
		s.cache.Recheck(c.key)
		o.xCache = "hit"
	}
	writeBody(w, o.xCache, o.body)
	return true
}

// solveTask is the worker half of a miss. It lands the flight with the
// solve's outcome, or with a 500 when the solve panics.
func (s *Server) solveTask(c *solveCall, f *solveFlight) task {
	queued := time.Now()
	return task{
		run: func(solver *costdist.Solver) {
			s.met.solveQueueWait.Observe(time.Since(queued).Seconds())
			s.land(c.key, f, s.solveOn(solver, c))
		},
		fail: func(err error) {
			s.land(c.key, f, solveOutcome{status: http.StatusInternalServerError, err: fmt.Errorf("solve %w", err)})
		},
	}
}

// solveOn builds the request on the solver's cached grid
// (Solver.Build), so a miss allocates no grid of its own, then solves,
// marshals and caches the reply. A document Build refuses is a 422 and
// charges no solve.
func (s *Server) solveOn(solver *costdist.Solver, c *solveCall) solveOutcome {
	if s.fault != nil {
		s.fault(c.key)
	}
	// The instance borrows the solver's grid: it must not outlive this
	// task.
	in, err := solver.Build(&c.doc)
	if err != nil {
		return solveOutcome{status: http.StatusUnprocessableEntity, err: err}
	}
	tr, err := solver.Solve(in, c.method, costdist.RouterOptions{})
	var out []byte
	if err == nil {
		out, err = costdist.MarshalTree(in, tr)
	}
	if err != nil {
		return solveOutcome{status: http.StatusInternalServerError, err: fmt.Errorf("solve: %w", err)}
	}
	s.cache.Put(c.key, out)
	s.met.chargeOracle(c.method.Name(), 1)
	return solveOutcome{body: out, xCache: "miss"}
}

// land ends a flight: its claim is dropped after the cache write and
// before done closes, so a later request either finds the entry or
// claims afresh and re-checks it.
func (s *Server) land(key string, f *solveFlight, o solveOutcome) {
	s.solveInflight.CompareAndDelete(key, f)
	f.out = o
	close(f.done)
}

// --- /v1/route and jobs ---

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	call, rej := resolveRoute(s.cfg, body)
	if rej != nil {
		s.httpError(w, rej.status, "%s", rej.msg)
		return
	}
	s.met.routeRequests.Add(1)
	key := call.key

	// Route jobs follow solveMiss's claim discipline: claim, re-check
	// the cache, submit. A duplicate of a claimed address is its own
	// job that follows the claimant instead of burning a second worker
	// on the same route. The claim is released inside the claimant's
	// terminal transition, whatever ends it — done (after the result is
	// cached), failed, cancelled, refused or shut down — so a terminal
	// job never holds one.
	jb := s.jobs.create(s.ctx, key)
	xCache, status := "miss", JobQueued
	if cached, ok := s.cache.Get(key); ok {
		jb.finishShared(JobDone, cached, "")
		xCache, status = "hit", JobDone
	} else if lj, follower := s.jobs.claims.LoadOrStore(key, jb); follower {
		go jb.follow(lj.(*job))
		xCache = "dedup"
	} else if cached, ok := s.cache.Recheck(key); ok {
		jb.finishShared(JobDone, cached, "")
		xCache, status = "hit", JobDone
	} else if !s.routePool.submit(task{
		run:  func(*costdist.Solver) { s.runRouteJob(jb, call) },
		fail: func(err error) { jb.finish(JobFailed, nil, "route "+err.Error()) },
	}) {
		// The client never learns this job id; drop the entry rather
		// than leaving a phantom failed job in the registry gauges.
		jb.finish(JobCancelled, nil, "route queue full")
		s.jobs.remove(jb.id)
		s.met.queueRejects.Add(1)
		s.httpError(w, http.StatusServiceUnavailable, "route queue full")
		return
	}
	w.Header().Set("X-Cache", xCache)
	writeJSON(w, http.StatusAccepted, JobView{ID: jb.id, Status: status})
}

// runRouteJob executes one route job on a pool worker. Route jobs route
// through RouteChipCtx under the job context, so DELETE and shutdown
// abort between per-net solves. The route job's own Threads (default 1)
// stay inside this worker's slot; cross-request parallelism comes from
// the pool.
//
// Every successful job retains its marshaled checkpoint under the
// job's content address (bounded by CheckpointBytes, evicted LRU). A
// request naming a BaseJob warm-starts from that job's checkpoint when
// it is still retained; otherwise it falls back to a cold route and
// counts a warm-start miss.
func (s *Server) runRouteJob(job *job, call *routeCall) {
	req, m, ropt, key := &call.req, call.method, call.ropt, call.key
	if st, _, _ := job.view(); st.terminal() {
		return // cancelled while queued
	}
	if s.fault != nil {
		s.fault(key)
	}
	// Every route job records structured telemetry: the recorder is the
	// SSE stream's history, feeds the per-stage histograms live (via
	// OnWave), and the flight ring plus per-oracle solve-latency
	// histograms at the end. Recording never changes results — the
	// recorded wire form is bit-identical to a recorder-less run except
	// for the deterministic per-wave series (locked by
	// TestRecorderDoesNotPerturbRoute).
	rec := costdist.NewRecorder()
	job.setStatus(JobRunning)
	start := time.Now()
	ropt.Recorder = rec
	job.events.record(rec)
	rec.OnWave(func(ws obs.WaveSnapshot) {
		s.met.observeWaveStages(ws)
		job.events.onWave()
	})
	defer func() {
		// Flight-record the job's spans and charge the per-oracle
		// latency histograms — also for failed and cancelled jobs, where
		// the partial spans are exactly what triage needs.
		spans := rec.Spans()
		s.flight.Add(spans)
		for _, sp := range spans {
			if sp.Stage == obs.StageSolve && !sp.Detail && sp.Oracle != "" {
				s.met.observeOracleSolve(sp.Oracle, float64(sp.Dur)/1e9)
			}
		}
	}()
	fail := func(err error) {
		if errors.Is(err, context.Canceled) || job.ctx.Err() != nil {
			job.finish(JobCancelled, nil, context.Canceled.Error())
			return
		}
		job.finish(JobFailed, nil, err.Error())
	}
	chip, err := costdist.GenerateChip(call.spec)
	if err != nil {
		fail(err)
		return
	}
	if req.PerturbFrac > 0 {
		chip, _, err = costdist.PerturbChip(chip, req.PerturbFrac, req.PerturbSeed)
		if err != nil {
			fail(err)
			return
		}
	}
	if err := job.ctx.Err(); err != nil {
		fail(err)
		return
	}
	retain := s.cfg.CheckpointBytes > 0
	base := s.baseCheckpoint(req.BaseJob, chip)
	var res *costdist.RouteResult
	var cp *costdist.RouterState
	switch {
	case base != nil:
		res, cp, err = costdist.RouteChipCtxFrom(job.ctx, base, chip, m, ropt)
	case retain:
		res, cp, err = costdist.RouteChipCtxCheckpoint(job.ctx, chip, m, ropt)
	default:
		// Checkpoint retention disabled: skip building and marshaling
		// multi-MB state nobody can ever warm-start from.
		res, err = costdist.RouteChipCtx(job.ctx, chip, m, ropt)
	}
	if err != nil {
		fail(err)
		return
	}
	if base != nil {
		s.met.netsReused.Add(res.Metrics.NetsSkipped)
	}
	s.met.netsRepaired.Add(res.Metrics.NetsRepaired)
	s.met.repairEscalated.Add(res.Metrics.RepairEscalated)
	out, err := costdist.MarshalRouteResult(chip, res)
	if err != nil {
		fail(err)
		return
	}
	if retain && cp != nil {
		// Checkpoints are stored gzip-compressed: the marshaled state is
		// mostly repetitive tree-step JSON, so compression multiplies the
		// number of base jobs the byte budget can retain.
		cpT0 := rec.Now()
		blob, err := costdist.MarshalCheckpoint(cp)
		rec.Span(obs.StageCheckpoint, -1, -1, "marshal", cpT0)
		if err == nil {
			gz := gzipBytes(blob)
			s.met.checkpointRawBytes.Add(int64(len(blob)))
			s.met.checkpointGzBytes.Add(int64(len(gz)))
			s.checkpoints.Put(key, gz)
		}
	}
	// A warm request that fell back cold (base checkpoint missing or
	// incompatible) must not populate the result cache: its key
	// includes base_job, and pinning the cold outcome there would keep
	// serving it even after the base state becomes available again —
	// the cache must only ever hold values that are a pure function of
	// the request.
	if req.BaseJob == "" || base != nil {
		s.cache.Put(key, out)
	}
	for name, n := range res.Metrics.SolvesByOracle {
		s.met.chargeOracle(name, n)
	}
	s.met.jobLatency.Observe(time.Since(start).Seconds())
	job.finish(JobDone, out, "")
}

// baseCheckpoint resolves a warm-start request: the named job's
// retained checkpoint, unmarshaled and verified compatible with the
// chip about to be routed, or nil (counting a miss) when the job is
// unknown, its checkpoint was evicted or fails to decode, or the
// checkpoint binds a different grid (e.g. a base job at another
// scale). An empty id is a cold request and counts nothing.
func (s *Server) baseCheckpoint(baseJob string, chip *costdist.Chip) *costdist.RouterState {
	if baseJob == "" {
		return nil
	}
	miss := func() *costdist.RouterState {
		s.met.warmStartMisses.Add(1)
		return nil
	}
	bj, ok := s.jobs.get(baseJob)
	if !ok {
		return miss()
	}
	gz, ok := s.checkpoints.Get(bj.ckey)
	if !ok {
		return miss()
	}
	blob, err := gunzipBytes(gz)
	if err != nil {
		return miss()
	}
	st, err := costdist.UnmarshalCheckpoint(blob)
	if err != nil {
		return miss()
	}
	if err := st.CompatibleWith(chip.G); err != nil {
		return miss()
	}
	s.met.warmStartHits.Add(1)
	return st
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	st, _, errMsg := job.view()
	writeJSON(w, http.StatusOK, JobView{ID: job.id, Status: st, Error: errMsg})
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	st, result, errMsg := job.view()
	switch st {
	case JobDone:
		writeBody(w, "", result)
	case JobFailed:
		s.httpError(w, http.StatusInternalServerError, "job failed: %s", errMsg)
	case JobCancelled:
		writeJSON(w, http.StatusConflict, JobView{ID: job.id, Status: st, Error: errMsg})
	default:
		writeJSON(w, http.StatusAccepted, JobView{ID: job.id, Status: st})
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	// Cancel the context (stops a running route between nets) and run
	// the terminal transition; if the job already finished, finish is a
	// no-op and the response reports the real final status.
	job.cancel()
	job.finish(JobCancelled, nil, "cancelled by client")
	st, _, errMsg := job.view()
	writeJSON(w, http.StatusOK, JobView{ID: job.id, Status: st, Error: errMsg})
}

// --- health + metrics ---

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"queue_depth": s.pool.depth() + s.routePool.depth(),
		"jobs":        s.jobs.statusCounts(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = io.WriteString(w, renderMetrics(s.met, s.cache.Stats(), s.checkpoints.Stats(),
		s.pool.depth()+s.routePool.depth(), s.jobs.statusCounts()))
}

// handleDebugObs dumps the flight-recorder ring: the most recent
// telemetry spans across all route jobs, oldest first, for post-hoc
// triage of a wedged or slow deployment without having had tracing
// enabled in advance.
func (s *Server) handleDebugObs(w http.ResponseWriter, _ *http.Request) {
	spans, total := s.flight.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"capacity":    s.flight.Capacity(),
		"total_spans": total,
		"retained":    len(spans),
		"spans":       spans,
	})
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"costdist"
	"costdist/internal/service"
)

// serviceWorkload is service-solve: a closed loop of `threads` clients
// over loopback HTTP against an in-process service.New(Shards:
// threads). Closed, because the callers — a routing flow — wait for
// each reply before sending the next net. One op is a fresh server,
// Warmup untimed first-seen requests, then a fixed sequence of Requests
// POST /v1/solve: three quarters first-seen documents, every fourth a
// document sent at least 50 positions earlier (a certain cache hit).
// It is the only workload with the service layer and the request side
// of io (parse, canonicalise, digest, cache) on the path.
type serviceWorkload struct {
	docs [][]byte // the pool: warm-up documents first, then the timed first-seen ones
	warm []int    // warm-up sequence (doc indices)
	seq  []int    // timed sequence (doc indices)

	lat []float64 // untraced request latencies in ms, all passes pooled

	last struct {
		wall      float64
		replies   []reply
		before    map[string]float64 // /metrics after warm-up
		after     map[string]float64 // /metrics after the pass
		clientSum float64            // Σ request latency, s
	}
}

type reply struct {
	status int
	hit    bool
	ms     float64
	body   []byte
}

// The InstanceJSON wire form (io.go), spelled out because its sink and
// congestion element types are anonymous there.
type docSink struct {
	X int32   `json:"x"`
	Y int32   `json:"y"`
	L int32   `json:"l"`
	W float64 `json:"w"`
}

type docRect struct {
	X0   int32   `json:"x0"`
	Y0   int32   `json:"y0"`
	X1   int32   `json:"x1"`
	Y1   int32   `json:"y1"`
	L    int32   `json:"l"`
	Mult float32 `json:"mult"`
}

type instanceDoc struct {
	NX         int32     `json:"nx"`
	NY         int32     `json:"ny"`
	Layers     int       `json:"layers"`
	Root       [3]int32  `json:"root"`
	Sinks      []docSink `json:"sinks"`
	DBif       float64   `json:"dbif"`
	Seed       uint64    `json:"seed"`
	Margin     int32     `json:"margin"`
	Congestion []docRect `json:"congestion"`
}

// genDoc draws one 64×64×8 instance document: 2–40 sinks with chipgen's
// fan-out mix (most nets small, a heavy tail), pins inside a box of
// 8–47 gcells, six priced rectangles, margin 6. The sink count, the box
// (size and place, hence how much of the window the chip edge clips) and
// which sinks are critical come from shape, a fixed stream: they set how
// much work a document is, and with a heavy tail and 450 documents a
// pass, drawing them per seed moved the bytes a pass allocates by 5.5 %
// and wall_s by more. Everything else — where the pins sit in the box,
// the weights, the prices — is the workload seed's (2.7 %).
func genDoc(shape, rng *rand.Rand, seed uint64) []byte {
	const n = 64
	var sinks int
	switch p := shape.Float64(); {
	case p < 0.45:
		sinks = 2
	case p < 0.62:
		sinks = 3
	case p < 0.85:
		sinks = 4 + shape.IntN(3)
	case p < 0.955:
		sinks = 7 + shape.IntN(9)
	case p < 0.99:
		sinks = 16 + shape.IntN(15)
	default:
		sinks = 31 + shape.IntN(10)
	}
	box := 8 + shape.Int32N(40)
	x0, y0 := shape.Int32N(n-box), shape.Int32N(n-box)
	d := instanceDoc{NX: n, NY: n, Layers: 8, DBif: -1, Seed: seed, Margin: 6}
	d.Root = [3]int32{x0 + rng.Int32N(box), y0 + rng.Int32N(box), 0}
	for s := 0; s < sinks; s++ {
		w := 0.0005 * rng.Float64()
		if shape.IntN(5) == 0 { // a critical sink
			w = 0.01 + 0.05*rng.Float64()
		}
		d.Sinks = append(d.Sinks, docSink{X: x0 + rng.Int32N(box), Y: y0 + rng.Int32N(box), W: w})
	}
	for k := 0; k < 6; k++ {
		rx, ry := rng.Int32N(n-8), rng.Int32N(n-8)
		d.Congestion = append(d.Congestion, docRect{
			X0: rx, Y0: ry, X1: rx + 2 + rng.Int32N(14), Y1: ry + 2 + rng.Int32N(14),
			L: rng.Int32N(8), Mult: 1.5 + 6*rng.Float32(),
		})
	}
	b, err := json.Marshal(d)
	if err != nil {
		panic(err) // plain numbers and slices cannot fail to marshal
	}
	return b
}

func (w *serviceWorkload) setup(r *run) error {
	sz := r.cfg.sz
	r.clients = r.cfg.threads
	shape := rand.New(rand.NewPCG(0x5EED, 0xD0C5))
	rng := rand.New(rand.NewPCG(r.cfg.seed, 0x5E71CE))
	w.docs, w.warm, w.seq = nil, nil, nil
	newDoc := func() int {
		w.docs = append(w.docs, genDoc(shape, rng, r.cfg.seed<<32+uint64(len(w.docs))))
		return len(w.docs) - 1
	}
	var sent []int // every position so far, warm-up included
	for i := 0; i < sz.Warmup; i++ {
		w.warm = append(w.warm, newDoc())
	}
	sent = append(sent, w.warm...)
	for pos := 0; pos < sz.Requests; pos++ {
		d := -1
		if pos%4 == 3 && len(sent) >= 50 {
			d = sent[rng.IntN(len(sent)-49)] // sent ≥ 50 positions ago: long since answered and cached
		} else {
			d = newDoc()
		}
		w.seq = append(w.seq, d)
		sent = append(sent, d)
	}
	// Server start and warm-up belong to set-up: run them once here so
	// setup_s shows work moved into them. Every op repeats them untimed
	// on its own fresh server.
	srv, err := startServer(r.cfg.threads)
	if err != nil {
		return err
	}
	defer srv.stop()
	for _, rp := range srv.drive(nil, -1, 0, 0, w.docs, w.warm, r.clients) {
		if rp.status != http.StatusOK {
			return fmt.Errorf("warm-up request answered %d", rp.status)
		}
	}
	return nil
}

// server is one in-process routed instance behind a loopback listener.
type server struct {
	svc    *service.Server
	ts     *httptest.Server
	client *http.Client
}

func startServer(shards int) (*server, error) {
	svc, err := service.New(service.Config{Shards: shards})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(svc.Handler())
	tr := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}
	return &server{svc: svc, ts: ts, client: &http.Client{Transport: tr}}, nil
}

func (s *server) stop() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.svc.Shutdown(ctx) // a worker that misses the deadline dies with the process
}

// drive sends docs[seq[i]] for every i in a closed loop of `clients`
// goroutines: each claims the next position when its previous reply has
// arrived. With tr set every request is a span under parent, numbered
// from first.
func (s *server) drive(tr *tracer, parent, op, first int, docs [][]byte, seq []int, clients int) []reply {
	out := make([]reply, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				sp := -1
				if tr != nil {
					sp = tr.begin(parent, op, fmt.Sprintf("request[%d]", first+i))
				}
				t0 := time.Now()
				resp, err := s.client.Post(s.ts.URL+"/v1/solve", "application/json", bytes.NewReader(docs[seq[i]]))
				if err == nil {
					out[i].body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					out[i].status = resp.StatusCode
					out[i].hit = resp.Header.Get("X-Cache") == "hit"
				}
				if err != nil {
					out[i].status = -1
				}
				out[i].ms = time.Since(t0).Seconds() * 1e3
				tr.end(sp)
			}
		}()
	}
	wg.Wait()
	return out
}

// scrape reads GET /metrics into series → value.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, sc.Err()
}

func (w *serviceWorkload) op(r *run, opID int) float64 {
	L := &w.last
	r.attempted += len(w.seq)
	srv, err := startServer(r.cfg.threads) // a fresh server per op: no cache or arena carries over
	if err != nil {
		r.failf("op %d: %v", opID, err)
		return 0
	}
	defer srv.stop()
	srv.drive(nil, -1, opID, 0, w.docs, w.warm, r.clients)
	if L.before, err = srv.scrape(); err != nil {
		r.failf("op %d: %v", opID, err)
		return 0
	}

	// The pass is timed in parts of RequestPart requests (the clients
	// drain between parts, a few milliseconds a pass), with a host
	// calibration between them (stopwatch.lap).
	L.replies = nil
	root := r.beginOp(opID)
	for lo := 0; lo < len(w.seq); lo += r.cfg.sz.RequestPart {
		if lo > 0 {
			r.lap()
		}
		hi := min(lo+r.cfg.sz.RequestPart, len(w.seq))
		L.replies = append(L.replies, srv.drive(r.tr, root, opID, lo, w.docs, w.seq[lo:hi], r.clients)...)
	}
	L.wall = r.endOp(root)

	if L.after, err = srv.scrape(); err != nil {
		r.failf("op %d: %v", opID, err)
		return 0
	}
	objective, digest := w.check(r, L.replies, L.after["routed_cache_hits_total"]-L.before["routed_cache_hits_total"])
	r.sameDigest(digest)
	L.clientSum = 0
	for _, rp := range L.replies {
		L.clientSum += rp.ms / 1e3
		if r.tr == nil {
			w.lat = append(w.lat, rp.ms)
		}
	}
	return objective
}

// check is service-solve's output check: every reply is 200; a seeded
// 1-in-50 sample is byte-identical to the library path ParseInstance →
// SolveCD → MarshalTree; and the hits the clients saw in X-Cache equal
// the hits the server counted. It returns Σ total over the replies.
func (w *serviceWorkload) check(r *run, replies []reply, serverHits float64) (objective float64, digest string) {
	h := sha256.New()
	sample := rand.New(rand.NewPCG(r.cfg.seed, 0x5A3B1E))
	var hits int
	for i, rp := range replies {
		verify := sample.IntN(50) == 0
		if rp.status != http.StatusOK {
			r.failf("request %d answered %d: %s", i, rp.status, bytes.TrimSpace(rp.body))
			continue
		}
		if rp.hit {
			hits++
		}
		var tree struct {
			Total float64 `json:"total"`
		}
		if err := json.Unmarshal(rp.body, &tree); err != nil {
			r.failf("request %d: reply is not a tree document: %v", i, err)
			continue
		}
		objective += tree.Total
		h.Write(rp.body)
		if !verify {
			continue
		}
		want, err := librarySolve(w.docs[w.seq[i]])
		if err != nil {
			r.failf("request %d: library path: %v", i, err)
		} else if !bytes.Equal(want, rp.body) {
			r.failf("request %d: reply differs from the library's ParseInstance → SolveCD → MarshalTree", i)
		}
	}
	if float64(hits) != serverHits {
		r.failf("clients saw %d X-Cache hits, routed_cache_hits_total counted %v", hits, serverHits)
	}
	return objective, hex.EncodeToString(h.Sum(nil))
}

func librarySolve(doc []byte) ([]byte, error) {
	in, err := costdist.ParseInstance(doc)
	if err != nil {
		return nil, err
	}
	tr, err := costdist.SolveCD(in, costdist.DefaultCDOptions())
	if err != nil {
		return nil, err
	}
	return costdist.MarshalTree(in, tr)
}

func (w *serviceWorkload) traced(r *run, untracedWall float64) error {
	const opID = 0
	w.op(r, opID)
	L := &w.last
	if L.after == nil {
		return fmt.Errorf("traced op failed")
	}
	delta := func(series string) float64 { return L.after[series] - L.before[series] }
	n := float64(len(L.replies))
	clients := float64(r.clients)

	var hitMS, missMS []float64
	var hitSum, missSum float64
	for _, rp := range L.replies {
		if rp.hit {
			hitMS = append(hitMS, rp.ms)
			hitSum += rp.ms / 1e3
		} else {
			missMS = append(missMS, rp.ms)
			missSum += rp.ms / 1e3
		}
	}
	pooled := sortedCopy(w.lat)
	r.setL("service.latency_p50_ms", quantile(pooled, 0.5))
	r.setL("service.latency_p99_ms", quantile(pooled, 0.99))
	r.setL("service.requests", delta(`routed_requests_total{endpoint="solve"}`))
	r.setL("service.cache_hits", delta("routed_cache_hits_total"))
	r.setL("service.cache_hit_ratio", delta("routed_cache_hits_total")/n)
	r.setL("service.queue_rejects", delta("routed_queue_rejects_total"))
	r.setL("service.miss.p50_ms", median(missMS))
	r.setL("service.hit.p50_ms", median(hitMS))

	// The server's own view: time inside the handler (hits and misses)
	// and the number of oracle solves it charged.
	handlerS := delta("routed_solve_latency_seconds_sum")
	solves := delta(`routed_solves_total{oracle="cd"}`)
	r.setL("service.solve_share", handlerS/L.clientSum)
	r.setL("core.solve.count", solves)
	r.setL("core.solve.busy_s", handlerS)
	if solves > 0 {
		r.setL("core.solve.us_per_net", handlerS*1e6/solves)
	}
	r.setL("core.solve.p99_us", 1e6*histogramQuantile(L.before, L.after, "routed_solve_latency_seconds_bucket", 0.99))
	r.setL("obs.overhead_pct", 100*(L.wall/untracedWall-1))

	r.attr = []attrRow{
		{Name: "service+core (handler)", Seconds: handlerS / clients, Note: fmt.Sprintf("routed_solve_latency_seconds sum ÷ %d clients", r.clients)},
		{Name: "service.transport", Seconds: (L.clientSum - handlerS) / clients, Note: "Σ client latency − handler time, ÷ clients: net/http, loopback, client"},
		{Name: "client idle", Seconds: L.wall - L.clientSum/clients, Note: "op wall − Σ client latency ÷ clients: claim gaps, end-of-sequence imbalance"},
		{Name: "  misses", Seconds: missSum / clients, Note: fmt.Sprintf("%d requests", len(missMS)), Sub: true},
		{Name: "  hits", Seconds: hitSum / clients, Note: fmt.Sprintf("%d requests", len(hitMS)), Sub: true},
		{Name: "= traced op wall", Seconds: L.wall, Sub: true},
	}
	return w.probes(r, median(hitMS))
}

// histogramQuantile returns the upper bound of the first bucket of a
// cumulative Prometheus histogram that holds quantile q of the
// observations made between two scrapes (0 if only +Inf does).
func histogramQuantile(before, after map[string]float64, family string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	var total float64
	for series, v := range after {
		if !strings.HasPrefix(series, family+`{le="`) {
			continue
		}
		le := strings.TrimSuffix(strings.TrimPrefix(series, family+`{le="`), `"}`)
		n := v - before[series]
		if le == "+Inf" {
			total = n
		} else if bound, err := strconv.ParseFloat(le, 64); err == nil {
			bs = append(bs, bucket{bound, n})
		}
	}
	sort.Slice(bs, func(a, b int) bool { return bs[a].le < bs[b].le })
	for _, b := range bs {
		if b.n >= q*total {
			return b.le
		}
	}
	return 0
}

// probes times the request pipeline without TCP (Handler().ServeHTTP
// into an httptest.ResponseRecorder), the request side of io, and the
// oracle on the parsed documents.
func (w *serviceWorkload) probes(r *run, loopbackHitMS float64) error {
	root := r.tr.begin(-1, -1, "probe")
	defer r.tr.end(root)
	k := min(r.cfg.sz.ProbeNets, len(w.warm), len(w.docs)-len(w.warm))
	warmDocs, docs := w.docs[:k], w.docs[len(w.warm):len(w.warm)+k]

	sp := r.tr.begin(root, -1, "probe.service.handler")
	svc, err := service.New(service.Config{Shards: 1})
	if err != nil {
		return err
	}
	h := svc.Handler()
	serve := func(doc []byte) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(doc)))
		return rec.Code
	}
	pass := func(set [][]byte) time.Duration {
		t0 := time.Now()
		for _, doc := range set {
			if code := serve(doc); code != http.StatusOK {
				r.failf("handler probe answered %d", code)
			}
		}
		return time.Since(t0)
	}
	pass(warmDocs) // warm pass: arena and code paths, on documents the timed pass never sees
	var missT time.Duration
	allocB, _ := allocDelta(func() { missT = pass(docs) })
	hitT := pass(docs)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = svc.Shutdown(ctx)
	cancel()
	r.tr.end(sp)
	r.setL("service.handler.miss_us", perItem(missT, k))
	r.setL("service.handler.hit_us", perItem(hitT, k))
	r.setL("service.alloc_kb_per_req", float64(allocB)/1024/float64(k))
	r.setL("service.transport_us", loopbackHitMS*1e3-perItem(hitT, k))

	sp = r.tr.begin(root, -1, "probe.io")
	ins := make([]*costdist.Instance, k)
	var parseT, canonT time.Duration
	var parseB uint64
	for p := 0; p < 2; p++ {
		parseB, _ = allocDelta(func() {
			t0 := time.Now()
			for i, doc := range docs {
				if ins[i], err = costdist.ParseInstance(doc); err != nil {
					r.failf("parse probe: %v", err)
				}
			}
			parseT = time.Since(t0)
		})
		t0 := time.Now()
		for _, doc := range docs {
			if _, err := costdist.CanonicalInstanceJSON(doc); err != nil {
				r.failf("canonical probe: %v", err)
			}
		}
		canonT = time.Since(t0)
	}
	r.tr.end(sp)
	r.setL("io.parse_instance.us_per_doc", perItem(parseT, k))
	r.setL("io.parse_instance.alloc_kb_per_doc", float64(parseB)/1024/float64(k))
	r.setL("io.canonical_json.us_per_doc", perItem(canonT, k))

	probeCore(r, root, ins, ins)
	return nil
}

package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"costdist"
)

// The resolvers are the request path's one statement of what a request
// means: decode, defaults, bounds, method and chip lookup, normalization
// of equivalent spellings, RouterOptions and the content address. They
// are pure functions of (Config, body) — no Server, metric, cache or
// clock — so the handlers only read → resolve → cache → submit → reply,
// and the fuzz targets drive exactly the code the network drives.

// maxInstanceVertices bounds nx·ny·layers of a solve request. A
// ~100-byte body can otherwise demand a multi-GB grid allocation on a
// pool worker, which then keeps it as its cached grid, so network input
// gets a hard cap the trusted CLI paths never needed.
const maxInstanceVertices = 1 << 24

// Route request caps, for the same reason: tiny bodies must not be
// able to demand unbounded goroutines (threads), netlist sizes (scale)
// or runtimes (waves). Scale 1.0 is the paper-size suite — the largest
// legitimate workload.
const (
	maxRouteThreads = 32
	maxRouteWaves   = 64
	maxRouteScale   = 1.0
)

// rejection is a request a resolver refuses: the HTTP status (400 for
// undecodable bodies, 422 for decodable but invalid ones) and message.
type rejection struct {
	status int
	msg    string
}

func reject(status int, format string, args ...any) *rejection {
	return &rejection{status: status, msg: fmt.Sprintf(format, args...)}
}

// solveCall is a resolved POST /v1/solve.
type solveCall struct {
	// doc is the request's one decode of the instance document,
	// normalized; the pool worker's Solver.Build runs on it only after a
	// cache miss.
	doc    costdist.InstanceJSON
	method costdist.Method
	// key is the content address: canonical instance bytes and the
	// resolved method, all that can change the answer.
	key string
}

func resolveSolve(cfg Config, body []byte) (*solveCall, *rejection) {
	var req SolveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, reject(http.StatusBadRequest, "parsing request: %v", err)
	}
	instanceDoc := []byte(req.Instance)
	if req.Instance == nil {
		instanceDoc = body // bare instance document
	}
	if req.Method == "" {
		req.Method = cfg.DefaultMethod
	}
	c := &solveCall{}
	var ok bool
	if c.method, ok = costdist.MethodByName(req.Method); !ok {
		return nil, reject(http.StatusUnprocessableEntity,
			"unknown method %q (valid: %v)", req.Method, costdist.MethodNames())
	}
	if err := json.Unmarshal(instanceDoc, &c.doc); err != nil {
		return nil, reject(http.StatusBadRequest, "costdist: parsing instance: %v", err)
	}
	c.doc.Normalize()
	// A deeper stack would wrap the int8 layer of a routing arc; refuse
	// it here, in Build's words, before the lookup counts a cache miss.
	if c.doc.Layers > costdist.MaxLayers {
		return nil, reject(http.StatusUnprocessableEntity,
			"costdist: instance has %d layers, at most %d", c.doc.Layers, costdist.MaxLayers)
	}
	// Stepwise so the product cannot overflow int64 before the check.
	plane := int64(c.doc.NX) * int64(c.doc.NY)
	if c.doc.Layers < 2 || plane < 0 ||
		plane > maxInstanceVertices || plane*int64(c.doc.Layers) > maxInstanceVertices {
		return nil, reject(http.StatusUnprocessableEntity,
			"instance grid %d×%d×%d exceeds the service limit of %d vertices",
			c.doc.NX, c.doc.NY, c.doc.Layers, maxInstanceVertices)
	}
	// Two negative dimensions multiply to a plausible plane; reject them
	// here, in Build's words, before the lookup counts a cache miss.
	if c.doc.NX < 2 || c.doc.NY < 2 {
		return nil, reject(http.StatusUnprocessableEntity,
			"costdist: instance needs nx,ny ≥ 2 and layers ≥ 2")
	}
	canonical, err := json.Marshal(&c.doc)
	if err != nil { // non-finite floats cannot come out of a JSON decode
		return nil, reject(http.StatusBadRequest, "%v", err)
	}
	h := sha256.New()
	h.Write(canonical)
	fmt.Fprintf(h, "\x00%s", c.method.Name())
	c.key = hex.EncodeToString(h.Sum(nil))
	return c, nil
}

// routeCall is a resolved POST /v1/route.
type routeCall struct {
	// req is the request with defaults applied and equivalent spellings
	// normalized; its JSON (less Threads) is what key digests.
	req    RouteRequest
	spec   costdist.ChipSpec
	method costdist.Method
	ropt   costdist.RouterOptions
	key    string
}

func resolveRoute(cfg Config, body []byte) (*routeCall, *rejection) {
	c := &routeCall{ropt: costdist.DefaultRouterOptions()}
	req := &c.req
	if err := json.Unmarshal(body, req); err != nil {
		return nil, reject(http.StatusBadRequest, "parsing request: %v", err)
	}
	if req.Scale == 0 {
		req.Scale = 0.01
	}
	if req.Scale < 0 || req.Scale > maxRouteScale ||
		req.Waves < 0 || req.Waves > maxRouteWaves ||
		req.Threads < 0 || req.Threads > maxRouteThreads {
		return nil, reject(http.StatusUnprocessableEntity,
			"route request out of bounds (scale ≤ %g, waves ≤ %d, threads ≤ %d)",
			maxRouteScale, maxRouteWaves, maxRouteThreads)
	}
	if req.PerturbFrac < 0 || req.PerturbFrac > 1 {
		return nil, reject(http.StatusUnprocessableEntity,
			"perturb_frac %g outside [0,1]", req.PerturbFrac)
	}
	// Normalize the perturbation fields so equivalent spellings share a
	// content address: without a perturbation the seed is meaningless,
	// with one the zero seed means the default.
	if req.PerturbFrac == 0 {
		req.PerturbSeed = 0
	} else if req.PerturbSeed == 0 {
		req.PerturbSeed = 1
	}
	if req.Oracle == "" {
		req.Oracle = cfg.DefaultMethod
	}
	var ok bool
	if c.method, ok = costdist.MethodByName(req.Oracle); !ok {
		return nil, reject(http.StatusUnprocessableEntity,
			"unknown oracle %q (valid: %v)", req.Oracle, costdist.MethodNames())
	}
	req.Oracle = c.method.Name()
	if req.Waves == 0 {
		req.Waves = c.ropt.Waves
	}
	if req.Threads == 0 {
		req.Threads = 1
	}
	c.ropt.Waves, c.ropt.Threads = req.Waves, req.Threads
	c.ropt.Incremental = req.Incremental
	// Repair tolerance: every negative spelling means "off", the library
	// default, and canonicalizes to absent before the content address is
	// taken. So does any tolerance on a cold route without the skip
	// policy, where the repair rung never runs.
	if req.RepairTol != nil && (*req.RepairTol < 0 || !req.Incremental && req.BaseJob == "") {
		req.RepairTol = nil
	}
	if req.RepairTol != nil {
		c.ropt.RepairTol = *req.RepairTol
	}

	if c.spec, ok = costdist.ChipSpecByName(req.Chip, req.Scale); !ok {
		var names []string
		for _, spec := range costdist.ChipSuite(req.Scale) {
			names = append(names, spec.Name)
		}
		return nil, reject(http.StatusUnprocessableEntity,
			"unknown chip %q (valid: %v)", req.Chip, names)
	}

	// The resolved request is the route's content address: requests
	// that normalize identically share one cached result. Threads is
	// excluded — results are thread-count independent (locked by the
	// route determinism tests), so it must not split the cache. BaseJob
	// is included: a warm-started route is its own outcome (the trees
	// depend on the restored state), keyed by the base job's identity.
	kreq := *req
	kreq.Threads = 0
	resolved, _ := json.Marshal(kreq) // plain struct of finite numbers: cannot fail
	h := sha256.New()
	h.Write([]byte("route\x00"))
	h.Write(resolved)
	c.key = hex.EncodeToString(h.Sum(nil))
	return c, nil
}

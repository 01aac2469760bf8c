package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"costdist"
)

// resolverConfigs are the server configurations the resolver tests run
// under: the defaults, and one with every request-visible default moved.
var resolverConfigs = []Config{
	Config{}.withDefaults(),
	Config{DefaultMethod: "portfolio"}.withDefaults(),
}

// canonicalSolveBody spells a resolved solve back out as a request: the
// wrapped form with every resolved value explicit.
func canonicalSolveBody(t *testing.T, c *solveCall) []byte {
	t.Helper()
	doc, err := json.Marshal(&c.doc)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(SolveRequest{
		Method:   c.method.Name(),
		Instance: doc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func checkRejection(t *testing.T, rej *rejection) {
	t.Helper()
	if rej.status != http.StatusBadRequest && rej.status != http.StatusUnprocessableEntity {
		t.Fatalf("rejection status %d, want 400 or 422 (%s)", rej.status, rej.msg)
	}
	if rej.msg == "" {
		t.Fatal("rejection without a message")
	}
}

// FuzzResolveSolve: resolveSolve never panics, refuses only with 400 or
// 422, accepts only documents under the vertex cap, and its key is a
// content address — the accepted call's own canonical spelling resolves
// to the same key. Small accepted documents are also built, the one
// thing the handler does to them before the pool takes over.
func FuzzResolveSolve(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "instances", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("seed corpus missing: %v (%d files)", err, len(files))
	}
	for _, path := range files {
		doc, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
		wrapped, _ := json.Marshal(SolveRequest{Method: "sl", Instance: doc})
		f.Add(wrapped)
	}
	for _, body := range []string{
		"{", "not json", `[1,2,3]`, `{}`, `{"instance":null}`,
		`{"method":"bogus","instance":{"nx":4,"ny":4,"layers":2}}`,
		`{"method":"auto","instance":{"nx":4,"ny":4,"layers":2}}`,
		`{"nx":4,"ny":4,"layers":2,"root":[99,0,0],"sinks":[{"x":1,"y":1,"l":0,"w":1}]}`,
		`{"nx":-5,"ny":-5,"layers":2,"root":[0,0,0],"sinks":[]}`,
		`{"nx":40000,"ny":40000,"layers":8,"root":[0,0,0],"sinks":[{"x":1,"y":1,"l":0,"w":1}]}`,
		`{"nx":2000000000,"ny":2000000000,"layers":2,"root":[0,0,0],"sinks":[]}`,
		`{"nx":4,"ny":4,"layers":9000000000000000000,"root":[0,0,0],"sinks":[]}`,
		`{"nx":4,"ny":4,"layers":129,"root":[0,0,0],"sinks":[{"x":3,"y":3,"l":128,"w":0.01}]}`,
		`{"nx":4,"ny":4,"layers":128,"root":[0,0,0],"sinks":[{"x":3,"y":3,"l":127,"w":0.01}]}`,
		`{"nx":16,"ny":16,"layers":4,"root":[2,2,0],"sinks":[{"x":12,"y":3,"l":0,"w":0.01},{"x":7,"y":13,"l":0,"w":-1e308},{"x":14,"y":14,"l":0,"w":0.02}]}`,
		`{"nx":16,"ny":16,"layers":4,"root":[2,2,0],"sinks":[{"x":12,"y":3,"l":0,"w":0.01},{"x":7,"y":13,"l":0,"w":1e308},{"x":14,"y":14,"l":0,"w":0.02}]}`,
		`{"method":"cd","instance":{"nx":8,"ny":8,"layers":2,"root":[0,0,0],"sinks":[{"x":7,"y":7,"l":1,"w":-1}],"eta":0.9}}`,
		`{"method":"pd","options":{"pd_alpha":0.7},"instance":{"nx":8,"ny":8,"layers":2,"root":[0,0,0],"sinks":[{"x":7,"y":7,"l":1,"w":0.02}],"dbif":-3,"margin":-1,"congestion":[{"x0":-2147483648,"y0":-2147483648,"x1":2147483647,"y1":2147483647,"l":0,"mult":3}]}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, cfg := range resolverConfigs {
			c, rej := resolveSolve(cfg, body)
			if rej != nil {
				checkRejection(t, rej)
				continue
			}
			d := &c.doc
			verts := int64(d.NX) * int64(d.NY) * int64(d.Layers)
			if d.NX < 2 || d.NY < 2 || d.Layers < 2 || d.Layers > costdist.MaxLayers || verts > maxInstanceVertices {
				t.Fatalf("accepted a %d×%d×%d grid", d.NX, d.NY, d.Layers)
			}
			again, rej := resolveSolve(cfg, canonicalSolveBody(t, c))
			if rej != nil {
				t.Fatalf("canonical form of an accepted request rejected: %d %s", rej.status, rej.msg)
			}
			if again.key != c.key {
				t.Fatalf("key not idempotent: %s then %s", c.key, again.key)
			}
			if verts <= 1<<14 {
				if in, err := d.Build(); err == nil && int64(in.G.NumV()) != verts {
					t.Fatalf("built %d vertices from a %d-vertex document", in.G.NumV(), verts)
				}
			}
		}
	})
}

// FuzzResolveRoute: resolveRoute never panics, refuses only with 400 or
// 422, accepts only requests inside every cap, and the resolved request
// re-resolves to the same key.
func FuzzResolveRoute(f *testing.F) {
	for _, body := range []string{
		"{", `[1]`, `{}`, `{"chip":"c99"}`, `{"chip":"c1","oracle":"bogus"}`,
		`{"chip":"c1","oracle":"auto"}`,
		`{"chip":"c1","scale":0.002,"waves":2,"oracle":"cd"}`,
		`{"chip":"c1","scale":0.002,"waves":2,"oracle":"cd","threads":2}`,
		`{"chip":"c1","scale":0.02,"waves":12,"seed":42}`,
		`{"chip":"c1","scale":2}`, `{"chip":"c1","waves":65}`, `{"chip":"c1","threads":-1}`,
		`{"chip":"c1","perturb_frac":1.5}`, `{"chip":"c1","perturb_frac":-0.1}`,
		`{"chip":"c2","scale":0.002,"waves":2,"oracle":"cd","base_job":"job-999999"}`,
		`{"chip":"c1","scale":0.002,"waves":2,"oracle":"l1","base_job":"job-000001","perturb_frac":0.05,"perturb_seed":9}`,
		`{"chip":"c1","scale":0.002,"waves":2,"oracle":"cd","incremental":true,"base_job":"job-000001","perturb_frac":0.1,"perturb_seed":5,"repair_tol":-1}`,
		`{"chip":"c1","repair_tol":0.25}`, `{"chip":"c1","repair_tol":-7,"perturb_seed":3}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, cfg := range resolverConfigs {
			c, rej := resolveRoute(cfg, body)
			if rej != nil {
				checkRejection(t, rej)
				continue
			}
			r := c.req
			if !(r.Scale > 0 && r.Scale <= maxRouteScale) || r.Waves < 1 || r.Waves > maxRouteWaves ||
				r.Threads < 1 || r.Threads > maxRouteThreads || !(r.PerturbFrac >= 0 && r.PerturbFrac <= 1) {
				t.Fatalf("accepted an out-of-bounds request: %+v", r)
			}
			if c.ropt.Waves != r.Waves || c.ropt.Threads != r.Threads || c.spec.Name != r.Chip {
				t.Fatalf("options %+v disagree with the resolved request %+v", c.ropt, r)
			}
			resolved, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			again, rej := resolveRoute(cfg, resolved)
			if rej != nil {
				t.Fatalf("resolved request %s rejected: %d %s", resolved, rej.status, rej.msg)
			}
			if again.key != c.key {
				t.Fatalf("key not idempotent: %s resolved to %s, then %s", body, c.key, again.key)
			}
		}
	})
}

// Equivalent spellings of one request share a content address; requests
// that can produce different bytes never do.
func TestResolveEquivalentSpellingsShareKeys(t *testing.T) {
	plain := resolverConfigs[0]
	routeKey := func(body string) string {
		t.Helper()
		c, rej := resolveRoute(plain, []byte(body))
		if rej != nil {
			t.Fatalf("%s: %d %s", body, rej.status, rej.msg)
		}
		return c.key
	}
	solveKey := func(body string) string {
		t.Helper()
		c, rej := resolveSolve(plain, []byte(body))
		if rej != nil {
			t.Fatalf("%s: %d %s", body, rej.status, rej.msg)
		}
		return c.key
	}
	waves := costdist.DefaultRouterOptions().Waves
	for _, tc := range []struct {
		name string
		a, b string
		same bool
	}{
		{"perturb_frac 0 ignores the seed", `{"chip":"c1"}`, `{"chip":"c1","perturb_seed":7}`, true},
		{"perturb_seed 0 is 1", `{"chip":"c1","perturb_frac":0.05}`, `{"chip":"c1","perturb_frac":0.05,"perturb_seed":1}`, true},
		{"perturb_seed matters with a perturbation", `{"chip":"c1","perturb_frac":0.05}`, `{"chip":"c1","perturb_frac":0.05,"perturb_seed":2}`, false},
		{"oracle alias", `{"chip":"c1","oracle":"l1"}`, `{"chip":"c1","oracle":"rsmt"}`, true},
		{"oracle default", `{"chip":"c1"}`, `{"chip":"c1","oracle":"cd"}`, true},
		{"threads never split the cache", `{"chip":"c1","threads":1}`, `{"chip":"c1","threads":8}`, true},
		{"scale and waves defaults", `{"chip":"c1"}`, fmt.Sprintf(`{"chip":"c1","scale":0.01,"waves":%d}`, waves), true},
		{"a route takes no seed", `{"chip":"c1"}`, `{"chip":"c1","seed":42}`, true},
		{"negative repair_tol is absent", `{"chip":"c1"}`, `{"chip":"c1","repair_tol":-3}`, true},
		{"repair_tol is absent on a cold route without incremental", `{"chip":"c1"}`, `{"chip":"c1","repair_tol":0.25}`, true},
		{"repair_tol matters with incremental", `{"chip":"c1","incremental":true}`, `{"chip":"c1","incremental":true,"repair_tol":0.25}`, false},
		{"repair_tol matters with a base_job", `{"chip":"c1","base_job":"job-000001"}`, `{"chip":"c1","base_job":"job-000001","repair_tol":0.25}`, false},
		{"base_job is part of the key", `{"chip":"c1"}`, `{"chip":"c1","base_job":"job-000001"}`, false},
	} {
		if ka, kb := routeKey(tc.a), routeKey(tc.b); (ka == kb) != tc.same {
			t.Errorf("%s: %s and %s: same key = %v, want %v", tc.name, tc.a, tc.b, ka == kb, tc.same)
		}
	}

	const inst = `{"nx":8,"ny":8,"layers":2,"root":[0,0,0],"sinks":[{"x":7,"y":7,"l":1,"w":0.02}],"dbif":0`
	bare := solveKey(inst + `}`)
	for _, tc := range []struct {
		name, body string
		same       bool
	}{
		{"bare instance is the wrapped one with the default method", `{"method":"cd","instance":` + inst + `}}`, true},
		{"wrapped without a method", `{"instance":` + inst + `}}`, true},
		{"eta omitted is 0.25", inst + `,"eta":0.25}`, true},
		{"margin omitted is 8, key order is free", `{"margin":8,` + inst[1:] + `}`, true},
		{"another eta", inst + `,"eta":0.3}`, false},
		{"another method", `{"method":"sl","instance":` + inst + `}}`, false},
		{"method alias", `{"method":"l1","instance":` + inst + `}}`, false},
		{"an options member is ignored", `{"method":"cd","options":{"pd_alpha":0.9},"instance":` + inst + `}}`, true},
	} {
		if k := solveKey(tc.body); (k == bare) != tc.same {
			t.Errorf("%s: same key as the bare document = %v, want %v", tc.name, k == bare, tc.same)
		}
	}
	if solveKey(`{"method":"pd","options":{"pd_alpha":0.7},"instance":`+inst+`}}`) != solveKey(`{"method":"pd","instance":`+inst+`}}`) {
		t.Error("method pd with options pd_alpha 0.7 resolves to another key than method pd without it")
	}
	if solveKey(`{"method":"l1","instance":`+inst+`}}`) != solveKey(`{"method":"rsmt","instance":`+inst+`}}`) {
		t.Error("method aliases l1 and rsmt resolve to different keys")
	}
}

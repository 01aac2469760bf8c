package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// holdFault is a Server.fault that holds the first route job of every
// content address on its worker until release closes, and counts the
// calls per address. entered receives each address as a job reaches
// the fault, so a test knows a worker is busy without timing it.
type holdFault struct {
	mu      sync.Mutex
	calls   map[string]int
	entered chan string
	release chan struct{}
}

func holdRoutes(s *Server) *holdFault {
	f := &holdFault{calls: map[string]int{}, entered: make(chan string, 16), release: make(chan struct{})}
	s.fault = func(key string) {
		f.mu.Lock()
		f.calls[key]++
		first := f.calls[key] == 1
		f.mu.Unlock()
		f.entered <- key
		if first {
			<-f.release
		}
	}
	return f
}

func (f *holdFault) callsFor(key string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[key]
}

// await blocks until a job reaches the fault with key.
func (f *holdFault) await(t *testing.T, key string) {
	t.Helper()
	select {
	case got := <-f.entered:
		if got != key {
			t.Fatalf("fault entered for %s, want %s", got, key)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("no route job reached the fault for %s", key)
	}
}

// routeBody is a small route request, its chip perturbed by seed so that
// each seed has its own content address, and that address.
func routeBody(t *testing.T, s *Server, seed int) ([]byte, string) {
	t.Helper()
	body := []byte(fmt.Sprintf(`{"chip":"c1","scale":0.002,"waves":1,"perturb_frac":0.01,"perturb_seed":%d}`, seed))
	call, rej := resolveRoute(s.cfg, body)
	if rej != nil {
		t.Fatal(rej.msg)
	}
	return body, call.key
}

// postRoute POSTs a route request and wants a 202 with the given
// X-Cache value; it returns the registered job.
func postRoute(t *testing.T, s *Server, body []byte, xCache string) *job {
	t.Helper()
	rec := serveDirect(s.Handler(), http.MethodPost, "/v1/route", body)
	var v JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || rec.Code != http.StatusAccepted {
		t.Fatalf("route submit: status %d body %s (%v)", rec.Code, rec.Body, err)
	}
	if got := rec.Header().Get("X-Cache"); got != xCache {
		t.Fatalf("job %s: X-Cache %q, want %q", v.ID, got, xCache)
	}
	jb, ok := s.jobs.get(v.ID)
	if !ok {
		t.Fatalf("job %s not registered", v.ID)
	}
	return jb
}

// ended waits for a job's terminal transition and returns its view.
func ended(t *testing.T, jb *job) (JobStatus, []byte, string) {
	t.Helper()
	select {
	case <-jb.done:
	case <-time.After(60 * time.Second):
		st, _, _ := jb.view()
		t.Fatalf("job %s stuck in %s", jb.id, st)
	}
	return jb.view()
}

// Route coalescing, held through Server.fault instead of timing: a
// duplicate follows a running claimant; a cancelled claimant has
// released its address by the time anyone sees it cancelled, and a
// submit the full queue refuses releases its address too.
func TestRouteClaimCoalescesAndReleases(t *testing.T) {
	t.Run("duplicate follows the held claimant", func(t *testing.T) {
		s, _ := newTestServer(t, Config{})
		f := holdRoutes(s)
		body, key := routeBody(t, s, 1)
		leader := postRoute(t, s, body, "miss")
		f.await(t, key)
		follower := postRoute(t, s, body, "dedup")
		close(f.release)
		lst, lres, lerr := ended(t, leader)
		fst, fres, ferr := ended(t, follower)
		if lst != JobDone || fst != JobDone {
			t.Fatalf("leader ended %s %q, follower %s %q; want both done", lst, lerr, fst, ferr)
		}
		if !bytes.Equal(lres, fres) {
			t.Fatalf("follower's result differs from the leader's (%d vs %d bytes)", len(fres), len(lres))
		}
		if n := f.callsFor(key); n != 1 {
			t.Fatalf("the route ran %d times, want 1", n)
		}
	})

	t.Run("a cancelled claimant releases its address", func(t *testing.T) {
		s, _ := newTestServer(t, Config{})
		f := holdRoutes(s)
		defer close(f.release)
		body, key := routeBody(t, s, 1)
		leader := postRoute(t, s, body, "miss")
		f.await(t, key)
		follower := postRoute(t, s, body, "dedup")
		if rec := serveDirect(s.Handler(), http.MethodDelete, "/v1/jobs/"+leader.id, nil); rec.Code != http.StatusOK {
			t.Fatalf("DELETE %s: status %d %s", leader.id, rec.Code, rec.Body)
		}
		if st, _, errMsg := ended(t, follower); st != JobFailed || !strings.Contains(errMsg, "deduplicated onto "+leader.id+" which ended cancelled") {
			t.Fatalf("follower ended %s %q, want failed naming %s", st, errMsg, leader.id)
		}
		// The cancelled leader's task is still held on its worker; the
		// address is free regardless, so this is a fresh claimant on the
		// other worker.
		again := postRoute(t, s, body, "miss")
		if st, _, errMsg := ended(t, again); st != JobDone {
			t.Fatalf("resubmitted route ended %s %q, want done", st, errMsg)
		}
		if n := f.callsFor(key); n != 2 {
			t.Fatalf("fault ran %d times for the key, want 2 (the held leader and the resubmit)", n)
		}
	})

	t.Run("a refused submit releases its address", func(t *testing.T) {
		s, _ := newTestServer(t, Config{QueueDepth: 1})
		f := holdRoutes(s)
		defer close(f.release)
		for seed := 1; seed <= routeWorkers; seed++ { // hold every route worker
			body, key := routeBody(t, s, seed)
			postRoute(t, s, body, "miss")
			f.await(t, key)
		}
		queued, _ := routeBody(t, s, routeWorkers+1)
		postRoute(t, s, queued, "miss") // fills the queue
		refused, _ := routeBody(t, s, routeWorkers+2)
		for try := 1; try <= 2; try++ {
			rec := serveDirect(s.Handler(), http.MethodPost, "/v1/route", refused)
			if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("X-Cache") != "" {
				t.Fatalf("submit %d on a full queue: status %d X-Cache %q %s, want 503 and no follower",
					try, rec.Code, rec.Header().Get("X-Cache"), rec.Body)
			}
		}
	})
}

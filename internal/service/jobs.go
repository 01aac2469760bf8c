package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// JobStatus is the lifecycle state of an asynchronous job.
type JobStatus string

const (
	JobQueued    JobStatus = "queued"
	JobRunning   JobStatus = "running"
	JobDone      JobStatus = "done"
	JobFailed    JobStatus = "failed"
	JobCancelled JobStatus = "cancelled"
)

// terminal reports whether a status can never change again.
func (s JobStatus) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// job is one asynchronous routing run tracked by the registry. The
// mutex guards status/result/err; ctx is cancelled by DELETE
// /v1/jobs/{id} and by server shutdown, and the routing run checks it
// between nets, so cancellation takes effect within one solve latency.
type job struct {
	id string
	// ckey is the job's route content address; the warm-start
	// checkpoint store is keyed by it, so identical requests (and
	// cache-hit followers of them) resolve to one retained checkpoint.
	// Immutable after create.
	ckey   string
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed on any terminal transition
	// retained points at the registry's terminal-bytes counter; finish
	// adds the result size there (atomically — finish holds j.mu, and
	// taking the registry lock here would invert the registry→job lock
	// order used by eviction).
	retained *atomic.Int64
	// events is what the job's SSE stream reads: the route's recorder
	// and a wake-up channel. It has its own mutex and never takes j.mu.
	events *jobEvents
	// claims points at the registry's map of route claims, content
	// address → the job computing it. terminate drops this job's own
	// entry, which is a no-op for a job that never claimed.
	claims *sync.Map

	mu       sync.Mutex
	status   JobStatus
	result   []byte
	charged  int64 // bytes charged to the retention budget (0 for shared bodies)
	err      string
	created  time.Time
	finished time.Time
}

// setStatus transitions to a non-terminal status (no-op once terminal).
func (j *job) setStatus(s JobStatus) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.terminal() {
		return
	}
	j.status = s
}

// finish performs the single terminal transition; later calls lose, so
// a cancel racing a completion keeps whichever landed first. The job
// context is released here — otherwise every completed job would stay
// registered as a child of the server's root context forever.
func (j *job) finish(s JobStatus, result []byte, errMsg string) {
	j.terminate(s, result, errMsg, int64(len(result)))
}

// finishShared is finish for a result body shared with the cache or
// another job: the bytes are not charged to the retention budget, so
// repeat cache-hit traffic cannot evict other clients' results.
func (j *job) finishShared(s JobStatus, result []byte, errMsg string) {
	j.terminate(s, result, errMsg, 0)
}

func (j *job) terminate(s JobStatus, result []byte, errMsg string, charge int64) {
	j.mu.Lock()
	if j.status.terminal() {
		j.mu.Unlock()
		return
	}
	j.status = s
	j.result = result
	j.charged = charge
	j.err = errMsg
	j.finished = time.Now()
	j.retained.Add(charge)
	// Release the claim before done closes and under j.mu, so anyone
	// who sees this job terminal — a follower, a status poll — finds
	// the content address free or cached.
	j.claims.CompareAndDelete(j.ckey, j)
	close(j.done)
	j.cancel()
	j.mu.Unlock()
	// End the event stream after the transition, so a subscriber it
	// wakes reads the terminal state.
	j.events.end()
}

// follow makes j mirror leader, the job holding their content
// address's claim: the leader's shared bytes once it is done, otherwise
// failed with a pointer to it (clients can resubmit). Cancelling j
// first ends the wait.
func (j *job) follow(leader *job) {
	select {
	case <-leader.done:
		st, res, errMsg := leader.view()
		if st == JobDone {
			j.finishShared(JobDone, res, "")
		} else {
			j.finish(JobFailed, nil,
				fmt.Sprintf("deduplicated onto %s which ended %s: %s", leader.id, st, errMsg))
		}
	case <-j.done:
	}
}

// view snapshots the job for handlers.
func (j *job) view() (status JobStatus, result []byte, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.result, j.err
}

// chargedBytes reports what this job added to the retention budget.
func (j *job) chargedBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.charged
}

// maxRetainedJobs and maxRetainedJobBytes bound the registry: beyond
// either, the oldest terminal jobs are evicted on every create. The
// byte bound matters because result-body size is client-controlled
// and the content-addressed cache's budget does not cover the copies
// pinned by registry entries. Route results are compact JSON, yet a
// one-wave CD route of c1 measures 14 MB at scale 0.1 and 74 MB at
// scale 0.3; steps per net grow with the die's side, so one scale 1.0
// result can outgrow the bound by itself.
const (
	maxRetainedJobs     = 1024
	maxRetainedJobBytes = 128 << 20
)

// jobRegistry tracks jobs by id. Terminal jobs are retained (so clients
// can poll results after completion) until the eviction bound pushes
// them out, oldest first; live jobs are never evicted.
type jobRegistry struct {
	mu    sync.Mutex
	seq   int64
	jobs  map[string]*job
	order []*job // creation order, for eviction
	// termBytes tracks the summed result sizes of retained terminal
	// jobs, maintained at the two transition points (finish adds,
	// eviction subtracts) so create never needs a full scan.
	termBytes atomic.Int64
	// claims maps route content addresses to the job computing them;
	// see Server.handleRoute.
	claims sync.Map
}

func newJobRegistry() *jobRegistry {
	return &jobRegistry{jobs: map[string]*job{}}
}

// create registers a new queued job whose context descends from base;
// ckey is the job's route content address ("" for non-route jobs).
func (r *jobRegistry) create(base context.Context, ckey string) *job {
	ctx, cancel := context.WithCancel(base)
	r.mu.Lock()
	r.seq++
	j := &job{
		id:       fmt.Sprintf("job-%06d", r.seq),
		ckey:     ckey,
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		retained: &r.termBytes,
		events:   newJobEvents(),
		claims:   &r.claims,
		status:   JobQueued,
		created:  time.Now(),
	}
	r.jobs[j.id] = j
	r.order = append(r.order, j)
	if len(r.jobs) > maxRetainedJobs || r.termBytes.Load() > maxRetainedJobBytes {
		kept := r.order[:0]
		for _, old := range r.order {
			st, _, _ := old.view()
			if st.terminal() && (len(r.jobs) > maxRetainedJobs || r.termBytes.Load() > maxRetainedJobBytes) {
				delete(r.jobs, old.id)
				r.termBytes.Add(-old.chargedBytes())
				continue
			}
			kept = append(kept, old)
		}
		r.order = kept
	}
	r.mu.Unlock()
	return j
}

// remove deletes a job that was never exposed to the client (its
// submit was rejected), so phantom entries don't skew the job gauges.
func (r *jobRegistry) remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	if !ok {
		return
	}
	if st, _, _ := j.view(); st.terminal() {
		r.termBytes.Add(-j.chargedBytes())
	}
	delete(r.jobs, id)
	for i, o := range r.order {
		if o.id == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

func (r *jobRegistry) get(id string) (*job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// cancelAll cancels every live job (server shutdown).
func (r *jobRegistry) cancelAll() {
	r.mu.Lock()
	jobs := make([]*job, 0, len(r.jobs))
	for _, j := range r.jobs {
		jobs = append(jobs, j)
	}
	r.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
		j.finish(JobCancelled, nil, "server shutting down")
	}
}

// statusCounts tallies jobs by status for /metrics and /healthz.
func (r *jobRegistry) statusCounts() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]int{}
	for _, j := range r.jobs {
		st, _, _ := j.view()
		out[string(st)]++
	}
	return out
}

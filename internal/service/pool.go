package service

import (
	"context"
	"sync"

	"costdist"
	"costdist/internal/panics"
)

// pool is a fixed set of workers pulling from one bounded task queue,
// so a task waits only while every worker is busy. Every worker owns
// one costdist.Solver whose scratch arena is recycled across requests —
// the same allocation-free hot path SolveBatch uses, kept warm for the
// lifetime of the server — and whose cached grid every solve of the
// last seen shape is built on (Solver.Build).
//
// A task that panics costs only itself: the worker recovers, hands the
// panic to the task's fail callback, and carries on with a fresh
// solver, retiring the arena and cached grid the panic may have left
// half written.
type pool struct {
	tasks chan task
	ctx   context.Context
	wg    sync.WaitGroup
}

// task is one unit of pool work: run gets the worker's solver, and fail
// gets the error a panicking run became ("panicked: <value> at
// <function> (<file>:<line>)", naming the frame that raised it).
type task struct {
	run  func(*costdist.Solver)
	fail func(error)
}

// newPool starts workers workers on a queue of queueDepth tasks under
// ctx; cancelling ctx stops every worker after its current task.
func newPool(ctx context.Context, workers, queueDepth int) *pool {
	p := &pool{tasks: make(chan task, queueDepth), ctx: ctx}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.work()
	}
	return p
}

func (p *pool) work() {
	defer p.wg.Done()
	solver := costdist.NewSolver()
	for {
		select {
		case <-p.ctx.Done():
			return
		case t := <-p.tasks:
			if !t.runOn(solver) {
				solver = costdist.NewSolver()
			}
		}
	}
}

// runOn runs the task on solver and reports whether it returned
// normally; a panic is recovered and passed to fail.
func (t task) runOn(solver *costdist.Solver) (ok bool) {
	defer func() {
		if v := recover(); v != nil {
			t.fail(panics.Error(v))
		}
	}()
	t.run(solver)
	return true
}

// submit enqueues a task. It never blocks: a full queue returns false
// (the caller answers 503), and a stopped pool returns false as well.
func (p *pool) submit(t task) bool {
	if p.ctx.Err() != nil {
		return false
	}
	select {
	case p.tasks <- t:
		return true
	default:
		return false
	}
}

// depth is the number of queued-but-unclaimed tasks.
func (p *pool) depth() int { return len(p.tasks) }

// wait blocks until every worker has exited (call after cancelling the
// pool context).
func (p *pool) wait() { p.wg.Wait() }

package service

import (
	"context"
	"regexp"
	"testing"

	"costdist"
)

// With two workers on one queue, a task submitted while the first one
// blocks is taken by the idle worker: it finishes before the first is
// released. Channels only; a pool that let the second task wait behind
// the first would hang here.
func TestPoolIdleWorkerTakesNextTask(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := newPool(ctx, 2, 4)
	defer func() {
		cancel()
		p.wait()
	}()
	started, release, firstDone, secondDone := make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
	submit := func(run func()) {
		t.Helper()
		if !p.submit(task{run: func(*costdist.Solver) { run() }, fail: func(err error) { t.Error(err) }}) {
			t.Fatal("submit refused")
		}
	}
	submit(func() {
		close(started)
		<-release
		close(firstDone)
	})
	<-started
	submit(func() { close(secondDone) })
	<-secondDone
	close(release)
	<-firstDone
}

// A panicking task costs only itself: fail gets the panic as an error,
// and the worker carries on with a fresh solver.
func TestPoolRecoversPanickingTask(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := newPool(ctx, 1, 4)
	defer func() {
		cancel()
		p.wait()
	}()
	solvers := make(chan *costdist.Solver, 3)
	failed := make(chan error, 1)
	record := task{
		run:  func(s *costdist.Solver) { solvers <- s },
		fail: func(err error) { t.Error(err) },
	}
	for _, tk := range []task{record, {
		run:  func(s *costdist.Solver) { solvers <- s; panic("injected fault") },
		fail: func(err error) { failed <- err },
	}, record} {
		if !p.submit(tk) {
			t.Fatal("submit refused")
		}
	}
	want := regexp.MustCompile(`^panicked: injected fault at costdist/internal/service\.TestPoolRecoversPanickingTask\.func\d+ \(pool_test\.go:\d+\)$`)
	if err := <-failed; !want.MatchString(err.Error()) {
		t.Fatalf("fail got %q, want a match of %s", err, want)
	}
	before, panicked, after := <-solvers, <-solvers, <-solvers
	if before != panicked {
		t.Fatal("one worker ran two tasks on two solvers before any panic")
	}
	if after == panicked {
		t.Fatal("the worker kept the solver of a panicked task")
	}
}

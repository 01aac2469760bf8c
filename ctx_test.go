package costdist

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// SolveBatchCtx with a background context must be bit-identical to
// SolveBatch (the non-cancelled path adds only a ctx check per claim).
func TestSolveBatchCtxUncancelledIdentical(t *testing.T) {
	ins := benchInstances(24, 5, 8, 16, 4)
	opt := BatchOptions{Workers: 4, Router: DefaultRouterOptions()}
	want := SolveBatch(ins, CD, opt)
	got, err := SolveBatchCtx(context.Background(), ins, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("SolveBatchCtx diverged from SolveBatch")
	}
	// A nil context means background, not a panic.
	got, err = SolveBatchCtx(nil, ins, CD, opt) //lint:ignore SA1012 explicitly supported
	if err != nil || !reflect.DeepEqual(want, got) {
		t.Fatalf("nil-context batch diverged (err %v)", err)
	}
}

// A cancelled batch must return ctx.Err() and stop solving promptly,
// with one worker and with several.
func TestSolveBatchCtxCancelled(t *testing.T) {
	ins := benchInstances(24, 5, 8, 64, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		start := time.Now()
		out, err := SolveBatchCtx(ctx, ins, CD, BatchOptions{Workers: workers, Router: DefaultRouterOptions()})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if len(out) != len(ins) {
			t.Fatalf("workers=%d: %d results for %d instances", workers, len(out), len(ins))
		}
		for i, r := range out {
			if r.Tree != nil || r.Err != nil {
				t.Fatalf("workers=%d: pre-cancelled batch solved instance %d", workers, i)
			}
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("workers=%d: cancelled batch took %v", workers, d)
		}
	}
}

// RouteChipCtx with a background context must match RouteChip exactly;
// a cancelled context must surface ctx.Err() within roughly one
// net-solve latency.
func TestRouteChipCtxCancellation(t *testing.T) {
	spec := ChipSuite(0.002)[0]
	chip, err := GenerateChip(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultRouterOptions()
	opt.Waves = 2
	opt.Threads = 2

	want, err := RouteChip(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RouteChipCtx(context.Background(), chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	wm, gm := want.Metrics, got.Metrics
	wm.Walltime, gm.Walltime = 0, 0
	if !reflect.DeepEqual(wm, gm) {
		t.Fatalf("RouteChipCtx diverged from RouteChip:\n%+v\n%+v", wm, gm)
	}
	if !reflect.DeepEqual(want.Trees, got.Trees) {
		t.Fatal("RouteChipCtx trees diverged from RouteChip")
	}

	// Pre-cancelled: no work at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RouteChipCtx(ctx, chip, CD, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled route: err = %v", err)
	}

	// Mid-run cancel: returns Canceled, promptly.
	ctx, cancel = context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := RouteChipCtx(ctx, chip, CD, opt)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		// The run may legitimately finish before the cancel lands on a
		// tiny chip; both outcomes are fine, an unrelated error is not.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-run cancel: err = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled route did not return")
	}
}

// The exact tier must honor the router's context mid-solve: its label
// loop polls Env.Ctx, so a cancelled RouteChipCtx run with the Exact
// method returns promptly instead of finishing the in-flight searches.
func TestRouteChipCtxCancellationExactTier(t *testing.T) {
	spec := ChipSuite(0.002)[0]
	chip, err := GenerateChip(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultRouterOptions()
	opt.Waves = 2
	opt.Threads = 2

	// Pre-cancelled: no work at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RouteChipCtx(ctx, chip, Exact, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled exact route: err = %v", err)
	}

	// Mid-run cancel: returns Canceled, promptly — the in-flight exact
	// searches abort through Env.Ctx rather than running to budget.
	ctx, cancel = context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := RouteChipCtx(ctx, chip, Exact, opt)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-run cancel: err = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled exact route did not return")
	}
}

// SolveExactGoal on an instance big enough to run for a while must
// abandon the search shortly after its context is cancelled — the goal
// solver checks the context inside the label loop, not just on entry.
func TestSolveExactGoalMidSearchCancel(t *testing.T) {
	in := diffInstance(3, 13, 10, 0) // band-2 scale: seconds of label work
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := SolveExactGoal(ctx, in)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	start := time.Now()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-search cancel: err = %v", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("goal solver took %v to notice the cancel", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled goal search did not return")
	}
}

// RouteChip must publish the final tree of every net — the service
// layer serializes them, so absence would be an API regression.
func TestRouteChipExposesTrees(t *testing.T) {
	spec := ChipSuite(0.002)[0]
	chip, err := GenerateChip(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultRouterOptions()
	opt.Waves = 1
	res, err := RouteChip(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trees) != len(chip.NL.Nets) {
		t.Fatalf("%d trees for %d nets", len(res.Trees), len(chip.NL.Nets))
	}
	routed := 0
	for _, tr := range res.Trees {
		if tr != nil && len(tr.Steps) > 0 {
			routed++
		}
	}
	if routed == 0 {
		t.Fatal("no net has a routed tree")
	}
}

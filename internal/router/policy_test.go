package router

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
)

// Usage is replayed in net order under both reuse policies, so the
// float32 sums — hence prices, trees and metrics — cannot depend on how
// nets land on workers, even when the technology's cap-use values are
// not exactly representable. The default ones are, so the other
// thread-count pins cannot catch a worker-order sum; this one can.
func TestRouteThreadIndependentWithInexactCapUse(t *testing.T) {
	chip := tinyChip(t, 0, 0.004)
	for li := range chip.G.Layers {
		lay := &chip.G.Layers[li]
		lay.ViaCapUse *= 0.7
		for wi := range lay.Wires {
			lay.Wires[wi].CapUse *= 0.3
		}
	}
	opt := DefaultOptions()
	opt.Waves = 3
	opt.Incremental = false
	var ref *Result
	for _, threads := range []int{1, 2, 3, 8} {
		opt.Threads = threads
		res, err := Route(chip, CD, opt)
		if err != nil {
			t.Fatal(err)
		}
		res.Metrics.Walltime = 0
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref.Metrics, res.Metrics) {
			t.Fatalf("threads=%d changed metrics:\nref %+v\ngot %+v", threads, ref.Metrics, res.Metrics)
		}
		if !reflect.DeepEqual(ref.Trees, res.Trees) {
			t.Fatalf("threads=%d changed routed trees", threads)
		}
	}
}

// IncrementalTol is a tolerance, not a mode switch: a negative value is
// an error that points at Incremental=false, the way to re-solve every
// net in every wave.
func TestNegativeIncrementalTolRejected(t *testing.T) {
	chip := tinyChip(t, 0, 0.002)
	opt := DefaultOptions()
	opt.Waves = 1
	_, st, err := RouteCheckpoint(context.Background(), chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.IncrementalTol = -1
	for _, incremental := range []bool{false, true} {
		opt.Incremental = incremental
		if _, err := Route(chip, CD, opt); err == nil || !strings.Contains(err.Error(), "Incremental=false") {
			t.Fatalf("Route(incremental=%v) with negative tolerance: err = %v", incremental, err)
		}
	}
	if _, _, err := RouteFrom(context.Background(), st, chip, CD, opt); err == nil || !strings.Contains(err.Error(), "Incremental=false") {
		t.Fatalf("RouteFrom with negative tolerance: err = %v", err)
	}
}

// Every entry point refuses a run with fewer than one wave (no wave
// builds the usage the result is assembled from), a NaN or +Inf
// tolerance (no drift exceeds either, so after wave 0 no net would ever
// be re-solved) and a price parameter outside its stated range (a NaN
// price leaves no finite label to settle), naming what it refused.
func TestRunOptionsRejected(t *testing.T) {
	chip := tinyChip(t, 0, 0.002)
	opt := DefaultOptions()
	opt.Waves = 1
	_, st, err := RouteCheckpoint(context.Background(), chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]func(Options) error{
		"Route": func(o Options) error { _, err := Route(chip, CD, o); return err },
		"RouteCheckpoint": func(o Options) error {
			_, _, err := RouteCheckpoint(context.Background(), chip, CD, o)
			return err
		},
		"RouteFrom": func(o Options) error {
			_, _, err := RouteFrom(context.Background(), st, chip, CD, o)
			return err
		},
	}
	for _, tc := range []struct {
		name string
		edit func(*Options)
		want string
	}{
		{"waves 0", func(o *Options) { o.Waves = 0 }, "Waves 0 "},
		{"waves -1", func(o *Options) { o.Waves = -1 }, "Waves -1 "},
		{"inctol NaN", func(o *Options) { o.Incremental, o.IncrementalTol = true, math.NaN() }, "IncrementalTol is NaN"},
		{"inctol +Inf", func(o *Options) { o.Incremental, o.IncrementalTol = true, math.Inf(1) }, "IncrementalTol is +Inf"},
		{"price alpha NaN", func(o *Options) { o.PriceAlpha = math.NaN() }, "PriceAlpha is NaN"},
		{"price alpha negative", func(o *Options) { o.PriceAlpha = -1 }, "PriceAlpha -1 "},
		{"price target NaN", func(o *Options) { o.PriceTarget = math.NaN() }, "PriceTarget is NaN"},
		{"price target -Inf", func(o *Options) { o.PriceTarget = math.Inf(-1) }, "PriceTarget is -Inf"},
	} {
		o := DefaultOptions()
		tc.edit(&o)
		for name, route := range entries {
			if err := route(o); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s with %s: err = %v, want one naming %q", name, tc.name, err, tc.want)
			}
		}
	}
}

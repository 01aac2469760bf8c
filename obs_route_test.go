package costdist

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// Attaching a telemetry recorder must not perturb routing: trees and
// every pre-existing metric are bit-identical to a recorder-less run;
// the recorder only ADDS the per-wave series. This is the contract that
// lets the service record every job while the golden digests and the
// content-addressed cache stay valid.
func TestRecorderDoesNotPerturbRoute(t *testing.T) {
	spec := ChipSuite(0.002)[0]
	chip, err := GenerateChip(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{CD, Portfolio} {
		opt := DefaultRouterOptions()
		opt.Waves = 3
		opt.Threads = 2
		plain, err := RouteChip(chip, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Metrics.ObjectivePerWave != nil || plain.Metrics.OverflowPerWave != nil ||
			plain.Metrics.StageNanosPerWave != nil {
			t.Fatalf("%v: recorder-less run carries telemetry series", m)
		}

		opt.Recorder = NewRecorder()
		rec, err := RouteChip(chip, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.Trees, rec.Trees) {
			t.Fatalf("%v: recorder changed routed trees", m)
		}
		pm, rm := plain.Metrics, rec.Metrics
		pm.Walltime, rm.Walltime = 0, 0
		rm.ObjectivePerWave, rm.OverflowPerWave, rm.StageNanosPerWave = nil, nil, nil
		if !reflect.DeepEqual(pm, rm) {
			t.Fatalf("%v: recorder changed metrics:\nplain %+v\nrec   %+v", m, pm, rm)
		}

		// The series themselves: one entry per wave, and the final
		// entries agree bit-for-bit with the headline metrics.
		rm = rec.Metrics
		waves := opt.Waves
		if len(rm.ObjectivePerWave) != waves || len(rm.OverflowPerWave) != waves ||
			len(rm.StageNanosPerWave) != waves {
			t.Fatalf("%v: series lengths %d/%d/%d, want %d", m,
				len(rm.ObjectivePerWave), len(rm.OverflowPerWave), len(rm.StageNanosPerWave), waves)
		}
		if got := rm.ObjectivePerWave[waves-1]; got != rm.Objective {
			t.Fatalf("%v: last objective-per-wave %v != objective %v", m, got, rm.Objective)
		}
		if got := rm.OverflowPerWave[waves-1]; got != rm.Overflow {
			t.Fatalf("%v: last overflow-per-wave %v != overflow %v", m, got, rm.Overflow)
		}
		for w, sn := range rm.StageNanosPerWave {
			if sn.Solve <= 0 {
				t.Fatalf("%v: wave %d recorded no solve time: %+v", m, w, sn)
			}
		}
	}
}

// The deterministic telemetry series must themselves be thread-count
// independent — they ride in the wire form, so any thread leak would
// split the service's content-addressed cache.
func TestRecorderSeriesDeterministicAcrossThreads(t *testing.T) {
	spec := ChipSuite(0.002)[0]
	chip, err := GenerateChip(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultRouterOptions()
	opt.Waves = 3
	var refObj, refOvf []float64
	for i, threads := range []int{1, 2, 8} {
		opt.Threads = threads
		opt.Recorder = NewRecorder() // fresh per run; recorders accumulate waves
		res, err := RouteChip(chip, CD, opt)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			refObj = res.Metrics.ObjectivePerWave
			refOvf = res.Metrics.OverflowPerWave
			continue
		}
		if !reflect.DeepEqual(refObj, res.Metrics.ObjectivePerWave) {
			t.Fatalf("threads=%d changed objective series: %v vs %v",
				threads, refObj, res.Metrics.ObjectivePerWave)
		}
		if !reflect.DeepEqual(refOvf, res.Metrics.OverflowPerWave) {
			t.Fatalf("threads=%d changed overflow series: %v vs %v",
				threads, refOvf, res.Metrics.OverflowPerWave)
		}
	}
}

// The wire form carries the deterministic series (objective/overflow
// per wave) and round-trips them; the wall-clock stage series stays
// off the wire like Walltime.
func TestRouteResultWireCarriesSeries(t *testing.T) {
	spec := ChipSuite(0.002)[0]
	chip, err := GenerateChip(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultRouterOptions()
	opt.Waves = 2
	opt.Recorder = NewRecorder()
	res, err := RouteChip(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	out, err := MarshalRouteResult(chip, res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out, []byte(`"objective_per_wave"`)) ||
		!bytes.Contains(out, []byte(`"overflow_per_wave"`)) {
		t.Fatal("recorded wire form misses the per-wave series")
	}
	if bytes.Contains(out, []byte("stage_ns")) || bytes.Contains(out, []byte("dirty_ns")) {
		t.Fatal("wall-clock stage series leaked into the wire form")
	}
	var doc struct {
		Metrics RouteMetricsJSON `json:"metrics"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Metrics.ObjectivePerWave, res.Metrics.ObjectivePerWave) {
		t.Fatalf("objective series did not round-trip: %v vs %v",
			doc.Metrics.ObjectivePerWave, res.Metrics.ObjectivePerWave)
	}

	// Recorder-less runs keep the legacy bytes: no series keys at all.
	opt.Recorder = nil
	plain, err := RouteChip(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	pout, err := MarshalRouteResult(chip, plain)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(pout, []byte("per_wave_")) || bytes.Contains(pout, []byte(`"objective_per_wave"`)) {
		t.Fatal("recorder-less wire form grew telemetry keys")
	}
}

// WriteTrace on a recorded route produces a Chrome trace_event document
// that passes the strict validator used by CI's round-trip check.
func TestRouteTraceRoundTrip(t *testing.T) {
	spec := ChipSuite(0.002)[0]
	chip, err := GenerateChip(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultRouterOptions()
	opt.Waves = 2
	opt.Threads = 2
	rec := NewRecorder()
	opt.Recorder = rec
	if _, err := RouteChip(chip, CD, opt); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, rec); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("trace fails validation: %v", err)
	}
	for _, want := range []string{`"solve:cd"`, `"wave"`, `"replay"`, `"reprice"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("trace misses %s events", want)
		}
	}
}

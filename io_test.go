package costdist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"
)

// CanonicalInstanceJSON must map every spelling of the same instance —
// key order, whitespace, explicit defaults — to one byte string, and
// distinguish instances that differ semantically. The service layer's
// cache addresses depend on exactly this property.
func TestCanonicalInstanceJSON(t *testing.T) {
	base := `{"nx":8,"ny":8,"layers":3,"root":[1,1,0],"sinks":[{"x":5,"y":5,"l":0,"w":0.01}],"dbif":20,"seed":3}`
	variants := []string{
		"  {\n  \"seed\": 3, \"dbif\": 20.0,\n  \"layers\": 3, \"ny\": 8, \"nx\": 8,\n  \"sinks\": [ {\"w\": 1e-2, \"l\": 0, \"y\": 5, \"x\": 5} ], \"root\": [1, 1, 0] }",
		`{"nx":8,"ny":8,"layers":3,"root":[1,1,0],"sinks":[{"x":5,"y":5,"l":0,"w":0.01}],"dbif":20,"eta":0.25,"seed":3,"margin":8}`,
	}
	want, err := CanonicalInstanceJSON([]byte(base))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range variants {
		got, err := CanonicalInstanceJSON([]byte(v))
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("variant %d canonicalizes differently:\n%s\n%s", i, want, got)
		}
	}
	// Any negative dbif spells "derive from technology".
	a, _ := CanonicalInstanceJSON([]byte(`{"nx":8,"ny":8,"layers":3,"root":[1,1,0],"sinks":[],"dbif":-1}`))
	b, _ := CanonicalInstanceJSON([]byte(`{"nx":8,"ny":8,"layers":3,"root":[1,1,0],"sinks":[],"dbif":-7}`))
	if !bytes.Equal(a, b) {
		t.Fatal("negative dbif spellings canonicalize differently")
	}
	// A semantic change must change the bytes.
	diff, err := CanonicalInstanceJSON([]byte(`{"nx":8,"ny":8,"layers":3,"root":[1,1,0],"sinks":[{"x":5,"y":5,"l":0,"w":0.01}],"dbif":20,"seed":4}`))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, diff) {
		t.Fatal("different seeds canonicalize identically")
	}
	if _, err := CanonicalInstanceJSON([]byte("{")); err == nil {
		t.Fatal("accepted malformed JSON")
	}
	// Canonical output must itself parse to a valid instance.
	if _, err := ParseInstance(want); err != nil {
		t.Fatalf("canonical form does not parse: %v", err)
	}
}

// The corpus documents must canonicalize stably (idempotence: canonical
// of canonical is canonical).
func TestCanonicalInstanceJSONIdempotentOnCorpus(t *testing.T) {
	for _, name := range []string{"small.json", "twopin.json", "congested.json"} {
		doc, err := os.ReadFile("examples/instances/" + name)
		if err != nil {
			t.Fatal(err)
		}
		c1, err := CanonicalInstanceJSON(doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c2, err := CanonicalInstanceJSON(c1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("%s: canonicalization not idempotent", name)
		}
	}
}

// MarshalRouteResult → UnmarshalRouteResult must round-trip the metrics
// and every net's embedded tree (wire types included), and re-marshal
// to the identical bytes — mirroring the TreeJSON wire-type round-trip
// guarantee from the single-net path.
func TestRouteResultRoundTrip(t *testing.T) {
	spec := ChipSuite(0.002)[0]
	chip, err := GenerateChip(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultRouterOptions()
	opt.Waves = 2
	opt.Incremental = true // exercise the per-wave counters too
	res, err := RouteChip(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalRouteResult(chip, res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalRouteResult(chip, data)
	if err != nil {
		t.Fatal(err)
	}

	wm := res.Metrics
	wm.Walltime = 0 // deliberately not serialized (nondeterministic)
	if !reflect.DeepEqual(wm, back.Metrics) {
		t.Fatalf("metrics did not round-trip:\nwant %+v\ngot  %+v", wm, back.Metrics)
	}
	if !reflect.DeepEqual(res.Trees, back.Trees) {
		t.Fatal("trees did not round-trip")
	}
	again, err := MarshalRouteResult(chip, back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-marshal is not byte-identical")
	}

	// Determinism across runs: an identical fresh run marshals to the
	// identical bytes — the property the service result cache relies on.
	res2, err := RouteChip(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := MarshalRouteResult(chip, res2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("two identical runs marshal differently")
	}
}

// The marshaled route result — metrics and every net's tree — must be
// byte-identical across thread counts. The service layer's route cache
// keys deliberately exclude the thread count; this test is what makes
// that exclusion sound.
func TestMarshalRouteResultThreadCountIndependent(t *testing.T) {
	spec := ChipSuite(0.002)[0]
	chip, err := GenerateChip(spec)
	if err != nil {
		t.Fatal(err)
	}
	var ref []byte
	for _, threads := range []int{1, 3, 8} {
		opt := DefaultRouterOptions()
		opt.Waves = 2
		opt.Threads = threads
		res, err := RouteChip(chip, CD, opt)
		if err != nil {
			t.Fatal(err)
		}
		data, err := MarshalRouteResult(chip, res)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = data
			continue
		}
		if !bytes.Equal(ref, data) {
			t.Fatalf("threads=%d marshals differently from threads=1", threads)
		}
	}
}

func TestUnmarshalRouteResultRejectsCorruptTrees(t *testing.T) {
	spec := ChipSuite(0.002)[0]
	chip, err := GenerateChip(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Non-adjacent edge inside a tree must be rejected by the same
	// validation the single-tree path uses.
	bad := []byte(`{"metrics":{},"trees":[{"edges":[[[0,0,0],[3,0,0]]],"wire_types":[0]}]}`)
	if _, err := UnmarshalRouteResult(chip, bad); err == nil {
		t.Fatal("accepted a non-adjacent edge")
	}
	if _, err := UnmarshalRouteResult(chip, []byte("{")); err == nil {
		t.Fatal("accepted malformed JSON")
	}
}

// The checkpoint codec must reject documents it cannot faithfully
// decode: wrong version, mangled layer directions, mismatched vector
// lengths, corrupt trees.
func TestUnmarshalCheckpointRejectsCorruptDocuments(t *testing.T) {
	chip, err := GenerateChip(ChipSuite(0.002)[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultRouterOptions()
	opt.Waves = 1
	_, st, err := RouteChipCheckpoint(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := MarshalCheckpoint(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalCheckpoint(blob); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}

	corrupt := func(name string, edit func(cp *CheckpointJSON)) {
		t.Helper()
		var cp CheckpointJSON
		if err := json.Unmarshal(blob, &cp); err != nil {
			t.Fatal(err)
		}
		edit(&cp)
		bad, err := json.Marshal(&cp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalCheckpoint(bad); err == nil {
			t.Errorf("%s: corrupt checkpoint accepted", name)
		}
	}
	corrupt("version", func(cp *CheckpointJSON) { cp.Version = 99 })
	corrupt("layer dirs", func(cp *CheckpointJSON) { cp.LayerDirs = "XXXX" })
	corrupt("short mult", func(cp *CheckpointJSON) { cp.Mult = cp.Mult[:3] })
	corrupt("tiny grid", func(cp *CheckpointJSON) { cp.NX = 0 })
	corrupt("truncated weights", func(cp *CheckpointJSON) { cp.Nets[0].Weights = nil })
	corrupt("truncated delays", func(cp *CheckpointJSON) {
		cp.Nets[0].Delays = append(cp.Nets[0].Delays, 1)
	})
	corrupt("corrupt tree", func(cp *CheckpointJSON) {
		for i := range cp.Nets {
			if tr := cp.Nets[i].Tree; tr != nil && len(tr.Edges) > 0 {
				tr.Edges[0][1] = [3]int32{tr.Edges[0][0][0] + 5, tr.Edges[0][0][1], tr.Edges[0][0][2]}
				return
			}
		}
		t.Fatal("no tree to corrupt")
	})
	if _, err := UnmarshalCheckpoint([]byte("{")); err == nil {
		t.Error("truncated document accepted")
	}
}

// checkpointHeader is a checkpoint document of an n×n×8 grid with empty
// price vectors and no nets: a header that claims a grid it carries no
// data for.
func checkpointHeader(n int32) []byte {
	return []byte(fmt.Sprintf(`{"version":1,"method":"cd","nx":%d,"ny":%d,"layers":8,"layer_dirs":"HVHVHVHV",`+
		`"cap":[],"mult":[],"ref":[],"metrics":{},"nets":[]}`, n, n))
}

// A checkpoint whose grid its vectors do not cover is refused before the
// grid is built: the 5000×5000×8 header costs its own decode, not the
// 1.5 GB of a grid, and the headers whose int32 vertex or segment counts
// would wrap (20000²) or not fit a slice (50000²) are errors, not panics.
func TestUnmarshalCheckpointValidatesBeforeAllocating(t *testing.T) {
	for _, tc := range []struct {
		n       int32
		wantErr string
	}{
		{5000, "costdist: checkpoint has 0/0/0 cap/mult/ref segments, grid has 374960000"},
		{20000, "costdist: checkpoint grid 20000x20000x8 too large (3200000000 vertices, 5999840000 segments)"},
		{50000, "costdist: checkpoint grid 50000x50000x8 too large (20000000000 vertices, 37499600000 segments)"},
	} {
		doc := checkpointHeader(tc.n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := UnmarshalCheckpoint(doc)
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != tc.wantErr {
			t.Fatalf("%d² header: error %v, want %q", tc.n, err, tc.wantErr)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
			t.Fatalf("refusing the %d-byte %d² header allocated %d bytes, want under 64 KB", len(doc), tc.n, b)
		}
	}
}

// Unconstrained sinks carry +Inf budgets; the codec encodes them as
// null and must bring them back as +Inf.
func TestCheckpointBudgetInfRoundTrip(t *testing.T) {
	chip, err := GenerateChip(ChipSuite(0.002)[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultRouterOptions()
	opt.Waves = 1
	_, st, err := RouteChipCheckpoint(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	st.Nets[0].Budgets[0] = math.Inf(1)
	blob, err := MarshalCheckpoint(st)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(st2.Nets[0].Budgets[0], 1) {
		t.Fatalf("budget came back %v, want +Inf", st2.Nets[0].Budgets[0])
	}
	blob2, err := MarshalCheckpoint(st2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("Inf budgets break byte stability")
	}
}

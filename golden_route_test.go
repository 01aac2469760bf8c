package costdist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
)

// goldenRoutes locks the cold routing path bit-for-bit: the sha256 of
// MarshalRouteResult for a matrix of (method, incremental) runs on a
// fixed small chip, captured before the RouterState refactor. Any
// change to these digests means the refactor altered routing results —
// the cold path must stay bit-identical to the pre-refactor engine.
// The incremental=false digests were captured from the former
// worker-order usage engine, so they also pin that the one wave loop's
// no-skip policy reproduces it. The digests are over the compact bytes
// MarshalRouteResult writes; they moved once, when it stopped writing
// json.MarshalIndent's layout, and each new digest is the sha256 of the
// old bytes after json.Compact — the same routes, without the white
// space.
//
// Regenerate (only when a deliberate behavior change is shipped) with:
//
//	GOLDEN_UPDATE=1 go test -run TestColdPathGolden .
const goldenRoutesFile = "testdata/golden_routes.json"

type goldenEntry struct {
	Method      string `json:"method"`
	Incremental bool   `json:"incremental"`
	SHA256      string `json:"sha256"`
}

func goldenConfigs() []struct {
	m   Method
	inc bool
} {
	return []struct {
		m   Method
		inc bool
	}{
		{CD, false},
		{CD, true},
		{Portfolio, true},
	}
}

func computeGolden(t *testing.T) []goldenEntry {
	t.Helper()
	spec := ChipSuite(0.002)[0]
	chip, err := GenerateChip(spec)
	if err != nil {
		t.Fatal(err)
	}
	var out []goldenEntry
	for _, cfg := range goldenConfigs() {
		opt := DefaultRouterOptions()
		opt.Waves = 3
		opt.Threads = 2
		opt.Incremental = cfg.inc
		res, err := RouteChip(chip, cfg.m, opt)
		if err != nil {
			t.Fatalf("%v incremental=%v: %v", cfg.m, cfg.inc, err)
		}
		blob, err := MarshalRouteResult(chip, res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		out = append(out, goldenEntry{
			Method:      cfg.m.Name(),
			Incremental: cfg.inc,
			SHA256:      hex.EncodeToString(sum[:]),
		})
	}
	return out
}

func TestColdPathGolden(t *testing.T) {
	got := computeGolden(t)
	if os.Getenv("GOLDEN_UPDATE") != "" {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		blob = append(blob, '\n')
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRoutesFile, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", goldenRoutesFile)
		return
	}
	blob, err := os.ReadFile(goldenRoutesFile)
	if err != nil {
		t.Fatalf("reading golden file (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d entries, want %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if g != w {
			t.Errorf("cold path changed for method=%s incremental=%v:\n  golden %s\n  got    %s",
				w.Method, w.Incremental, w.SHA256, g.SHA256)
		}
	}
}

// goldenWarmRepairFile pins the warm path the cold matrix above does
// not reach: the sha256 of MarshalRouteResult for warmRepairECO's warm
// run (cold CD route of c1@0.005, checkpoint, 5 % ECO, RouteChipFrom
// with RepairTol 0.25), which replays, repairs and re-solves nets. Like
// the cold matrix it hashes compact bytes, and it moved with the cold
// digests when the white space went. Regenerate it like the cold matrix:
//
//	GOLDEN_UPDATE=1 go test -run TestWarmRepairGolden .
const goldenWarmRepairFile = "testdata/golden_warm_repair.json"

func TestWarmRepairGolden(t *testing.T) {
	pert, _, warm := warmRepairECO(t)
	blob, err := MarshalRouteResult(pert, warm)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	got := goldenEntry{Method: CD.Name(), Incremental: true, SHA256: hex.EncodeToString(sum[:])}
	if os.Getenv("GOLDEN_UPDATE") != "" {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenWarmRepairFile, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", goldenWarmRepairFile)
		return
	}
	blob, err = os.ReadFile(goldenWarmRepairFile)
	if err != nil {
		t.Fatalf("reading golden file (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	var want goldenEntry
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("warm+repair route changed:\n  golden %s\n  got    %s", want.SHA256, got.SHA256)
	}
}

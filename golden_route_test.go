package costdist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"costdist/internal/pins"
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
// space. Each entry also records the route's objective, overflow and TNS,
// which a mismatch prints before the digests.
//
// Regenerate (only when a deliberate behavior change is shipped) with:
//
//	PINS_UPDATE=1 go test ./...
const goldenRoutesFile = "testdata/golden_routes.json"

type goldenEntry struct {
	Method      string  `json:"method"`
	Incremental bool    `json:"incremental"`
	Objective   float64 `json:"objective"`
	Overflow    float64 `json:"overflow"`
	TNS         float64 `json:"tns"`
	SHA256      string  `json:"sha256"`
}

// newGoldenEntry is the golden record of res, routed on chip.
func newGoldenEntry(t *testing.T, m Method, inc bool, chip *Chip, res *RouteResult) goldenEntry {
	t.Helper()
	blob, err := MarshalRouteResult(chip, res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return goldenEntry{
		Method: m.Name(), Incremental: inc,
		Objective: res.Metrics.Objective, Overflow: res.Metrics.Overflow, TNS: res.Metrics.TNS,
		SHA256: hex.EncodeToString(sum[:]),
	}
}

func (e goldenEntry) String() string {
	return fmt.Sprintf("objective %v, overflow %v, TNS %v, sha256 %s", e.Objective, e.Overflow, e.TNS, e.SHA256)
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
		out = append(out, newGoldenEntry(t, cfg.m, cfg.inc, chip, res))
	}
	return out
}

func TestColdPathGolden(t *testing.T) {
	got := computeGolden(t)
	var want []goldenEntry
	pins.JSON(t, goldenRoutesFile, got, &want)
	if len(want) != len(got) {
		t.Fatalf("golden file has %d entries, want %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if g != w {
			t.Errorf("cold path changed for method=%s incremental=%v:\n  golden %v\n  got    %v",
				w.Method, w.Incremental, w, g)
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
//	PINS_UPDATE=1 go test ./...
const goldenWarmRepairFile = "testdata/golden_warm_repair.json"

func TestWarmRepairGolden(t *testing.T) {
	pert, _, warm := warmRepairECO(t)
	got := newGoldenEntry(t, CD, true, pert, warm)
	var want goldenEntry
	pins.JSON(t, goldenWarmRepairFile, got, &want)
	if got != want {
		t.Errorf("warm+repair route changed:\n  golden %v\n  got    %v", want, got)
	}
}

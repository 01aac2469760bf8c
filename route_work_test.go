package costdist

import (
	"reflect"
	"testing"

	"costdist/internal/pins"
)

// routeWorkFile pins the core search work (RouteMetrics.WorkPerWave) and
// the repair rung's settled labels (RouteMetrics.RepairSettlesPerWave)
// of a cold route and of a warm start with the repair rung, per wave. The
// counts are sums over nets, so they are the same at every worker count
// and GOMAXPROCS. A change that only makes the searches faster must
// leave this file byte-equal; one that changes what the searches do —
// and with it, usually, the routes — regenerates it beside the goldens
// and says why:
//
//	PINS_UPDATE=1 go test ./...
const routeWorkFile = "testdata/route_work.json"

type workEntry struct {
	Run           string       `json:"run"`
	Waves         []SearchWork `json:"waves"`
	RepairSettles []int64      `json:"repair_settles"`
}

// warmRepairECO routes c1 at scale 0.005 cold for 3 waves, then
// warm-starts the 5 % ECO of it from the checkpoint with RepairTol 0.25.
// It returns the perturbed chip and both results.
func warmRepairECO(t *testing.T) (pert *Chip, cold, warm *RouteResult) {
	t.Helper()
	chip := mkChip(t, 0, 0.005)
	opt := DefaultRouterOptions()
	opt.Waves = 3
	cold, st, err := RouteChipCheckpoint(chip, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	pert, _, err = PerturbChip(chip, 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	opt.RepairTol = 0.25
	warm, _, err = RouteChipFrom(st, pert, CD, opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Metrics.NetsRepaired == 0 {
		t.Fatal("the ECO repaired no net: the repair rung is not exercised")
	}
	return pert, cold, warm
}

// computeRouteWork is the work per wave of warmRepairECO's two runs.
func computeRouteWork(t *testing.T) []workEntry {
	t.Helper()
	_, cold, warm := warmRepairECO(t)
	return []workEntry{
		{"cold c1@0.005, 3 waves", cold.Metrics.WorkPerWave, cold.Metrics.RepairSettlesPerWave},
		{"warm+repair ECO 5 %, RepairTol 0.25", warm.Metrics.WorkPerWave, warm.Metrics.RepairSettlesPerWave},
	}
}

func TestRouteWorkPinned(t *testing.T) {
	got := computeRouteWork(t)
	if cold := got[0].Waves; len(cold) != 3 || cold[0].Searches == 0 {
		t.Fatalf("%s: work per wave %+v, want 3 waves that search", got[0].Run, cold)
	}
	var repaired int64
	for i, e := range got {
		for _, s := range e.RepairSettles {
			if i == 0 && s != 0 {
				t.Fatalf("%s: repair settles per wave %v, want zeros", e.Run, e.RepairSettles)
			}
			repaired += s
		}
	}
	if repaired == 0 {
		t.Fatalf("%s: the repair rung settled no label", got[1].Run)
	}
	var want []workEntry
	pins.JSON(t, routeWorkFile, got, &want)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("search work changed:\npinned %+v\ngot    %+v", want, got)
	}
}

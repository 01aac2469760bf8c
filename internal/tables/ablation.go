package tables

import (
	"fmt"
	"strings"

	"costdist/internal/core"
	"costdist/internal/nets"
)

// AblationRow reports one CD variant on the captured instance set.
type AblationRow struct {
	Name string
	// AvgPct is the mean objective increase over the default
	// configuration, in percent (negative = better than default).
	AvgPct float64
	// Instances actually scored.
	Instances int
}

// ablationVariants switch off the §III enhancements one at a time (the
// core.Options toggles), plus the plain §II algorithm with all of them off.
func ablationVariants() []struct {
	name string
	opt  core.Options
} {
	d := core.DefaultOptions()
	noDiscount := d
	noDiscount.Discount = false
	noImprove := d
	noImprove.ImproveSteiner = false
	noBonus := d
	noBonus.RootBonus = false
	noAStar := d
	noAStar.AStar = false
	flat := d
	flat.FlatHeap = true
	return []struct {
		name string
		opt  core.Options
	}{
		{"default", d},
		{"no-discount (§III-A off)", noDiscount},
		{"no-improve (§III-D off)", noImprove},
		{"no-root-bonus (§III-E off)", noBonus},
		{"no-a-star (§III-C off)", noAStar},
		{"flat-heap (§III-B off)", flat},
		{"plain §II", core.Options{}},
	}
}

// Ablation captures instances from a CD routing run and scores every
// §III variant against the default configuration on the same instances.
func Ablation(cfg Config, withBif bool) ([]AblationRow, error) {
	captured, err := cfg.captureCD(withBif)
	if err != nil {
		return nil, err
	}
	variants := ablationVariants()
	totals := make([]float64, len(variants))
	count := 0
	for _, in := range captured {
		if len(in.Sinks) < 3 {
			continue
		}
		vals := make([]float64, len(variants))
		ok := true
		for vi, v := range variants {
			tr, err := core.Solve(in, v.opt)
			if err != nil {
				ok = false
				break
			}
			ev, err := nets.Evaluate(in, tr)
			if err != nil {
				ok = false
				break
			}
			vals[vi] = ev.Total
		}
		if !ok || vals[0] <= 0 {
			continue
		}
		for vi := range variants {
			totals[vi] += 100 * (vals[vi] - vals[0]) / vals[0]
		}
		count++
	}
	rows := make([]AblationRow, len(variants))
	for vi, v := range variants {
		rows[vi] = AblationRow{Name: v.name, Instances: count}
		if count > 0 {
			rows[vi].AvgPct = totals[vi] / float64(count)
		}
	}
	return rows, nil
}

// FormatAblation renders the ablation table.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ABLATION — CD objective change vs default configuration (%d instances, |S| ≥ 3)\n", rows[0].Instances)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %+7.2f%%\n", r.Name, r.AvgPct)
	}
	return b.String()
}

// Package tables regenerates every table and figure of the paper's
// evaluation (§IV) on the synthetic chip suite:
//
//	Table I   — average objective increase vs best-of-4, dbif = 0
//	Table II  — the same with bifurcation penalties (dbif > 0)
//	Table III — instance parameters of the chip suite
//	Table IV  — global routing results (WS/TNS/ACE4/WL/vias/time), dbif = 0
//	Table V   — the same with dbif > 0
//	Figure 1  — bifurcations on a critical path: CD vs topology-first
//	Figure 2  — repeater chain / λ split illustration
//	Figure 3  — the course of the algorithm on a 5-sink instance
//
// Absolute numbers differ from the paper (synthetic chips, simulated
// router); the shapes under test are who wins per metric and how the
// advantage develops with |S| and with dbif.
package tables

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"costdist/internal/chipgen"
	"costdist/internal/nets"
	"costdist/internal/router"
)

// Config scales the experiments.
type Config struct {
	// Scale multiplies the paper's net counts (1.0 = full size).
	Scale float64
	// Chips selects suite indices (nil = all eight).
	Chips []int
	// Waves, Threads, Seed forward to the router.
	Waves   int
	Threads int
	Seed    uint64
}

func (c Config) chipIndices() []int {
	if len(c.Chips) > 0 {
		return c.Chips
	}
	return []int{0, 1, 2, 3, 4, 5, 6, 7}
}

func (c Config) routerOptions() router.Options {
	opt := router.DefaultOptions()
	opt.Waves = c.Waves
	opt.Threads = c.Threads
	opt.Seed = c.Seed
	return opt
}

// generate builds suite chip ci at the configured scale; without
// withBif its bifurcation penalty is 0.
func (c Config) generate(ci int, withBif bool) (*chipgen.Chip, error) {
	chip, err := chipgen.Generate(chipgen.Suite(c.Scale)[ci])
	if err == nil && !withBif {
		chip.DBif = 0
	}
	return chip, err
}

// captureCD routes every configured chip with CD and returns the
// instances its last wave solved, in chip order: the instance set that
// Tables I/II and the ablation score.
func (c Config) captureCD(withBif bool) ([]*nets.Instance, error) {
	opt := c.routerOptions()
	opt.CaptureWave = opt.Waves - 1
	var captured []*nets.Instance
	for _, ci := range c.chipIndices() {
		chip, err := c.generate(ci, withBif)
		if err != nil {
			return nil, err
		}
		res, err := router.Route(chip, router.CD, opt)
		if err != nil {
			return nil, err
		}
		captured = append(captured, res.Captured...)
	}
	return captured, nil
}

// Print writes a table — "1" to "5", "ablation", or "all" for every one
// — to w, each followed by a blank line: the output of cmd/benchtables.
func Print(w io.Writer, cfg Config, table string) error {
	want := func(t string) bool { return table == "all" || table == t }
	if want("3") {
		fmt.Fprintln(w, FormatTableIII(TableIII(cfg), cfg.Scale))
	}
	for _, t := range []struct {
		name, title string
		withBif     bool
	}{
		{"1", "TABLE I — AVERAGE COST INCREASE COMPARED TO MINIMUM, dbif = 0", false},
		{"2", "TABLE II — AVERAGE COST INCREASE COMPARED TO MINIMUM, dbif > 0", true},
	} {
		if want(t.name) {
			rows, err := InstanceComparison(cfg, t.withBif)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, FormatInstanceTable(t.title, rows))
		}
	}
	for _, t := range []struct {
		name, title string
		withBif     bool
	}{
		{"4", "TABLE IV — TIMING-CONSTRAINED GLOBAL ROUTING RESULTS, dbif = 0 (* = best)", false},
		{"5", "TABLE V — TIMING-CONSTRAINED GLOBAL ROUTING RESULTS, dbif > 0 (* = best)", true},
	} {
		if want(t.name) {
			rows, err := GlobalRouting(cfg, t.withBif)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, FormatGRTable(t.title, rows))
		}
	}
	if want("ablation") {
		rows, err := Ablation(cfg, true)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, FormatAblation(rows))
	}
	return nil
}

// Methods in the paper's column order.
var Methods = []router.Method{router.L1, router.SL, router.PD, router.CD}

// InstRow is one |S|-bucket row of Tables I/II.
type InstRow struct {
	Label     string
	Instances int
	// AvgPct[m] is the mean relative objective increase (in percent)
	// of method m over the per-instance best of the four.
	AvgPct [4]float64
}

var buckets = []struct {
	label  string
	lo, hi int
}{
	{"3-5", 3, 5},
	{"6-14", 6, 14},
	{"15-29", 15, 29},
	{">=30", 30, 1 << 30},
}

// InstanceComparison reproduces Tables I/II: instances are captured
// during a CD-driven routing run (matching "as they were generated
// during timing-constrained global routing"), then every instance is
// solved by all four algorithms and scored with the shared evaluator.
func InstanceComparison(cfg Config, withBif bool) ([]InstRow, error) {
	captured, err := cfg.captureCD(withBif)
	if err != nil {
		return nil, err
	}
	sums := make([][4]float64, len(buckets)+1)
	counts := make([]int, len(buckets)+1)
	for _, in := range captured {
		t := len(in.Sinks)
		bi := -1
		for i, b := range buckets {
			if t >= b.lo && t <= b.hi {
				bi = i
				break
			}
		}
		if bi < 0 {
			continue // 1-2 sink instances are not tabulated in the paper
		}
		var totals [4]float64
		best := -1.0
		ok := true
		for mi, m := range Methods {
			tr, err := router.SolveNet(in, m, nil)
			if err != nil {
				ok = false
				break
			}
			ev, err := nets.Evaluate(in, tr)
			if err != nil {
				ok = false
				break
			}
			totals[mi] = ev.Total
			if best < 0 || ev.Total < best {
				best = ev.Total
			}
		}
		if !ok || best <= 0 {
			continue
		}
		for mi := range Methods {
			inc := 100 * (totals[mi] - best) / best
			sums[bi][mi] += inc
			sums[len(buckets)][mi] += inc
		}
		counts[bi]++
		counts[len(buckets)]++
	}

	rows := make([]InstRow, 0, len(buckets)+1)
	for i, b := range buckets {
		row := InstRow{Label: b.label, Instances: counts[i]}
		for mi := range Methods {
			if counts[i] > 0 {
				row.AvgPct[mi] = sums[i][mi] / float64(counts[i])
			}
		}
		rows = append(rows, row)
	}
	all := InstRow{Label: "all", Instances: counts[len(buckets)]}
	for mi := range Methods {
		if all.Instances > 0 {
			all.AvgPct[mi] = sums[len(buckets)][mi] / float64(all.Instances)
		}
	}
	rows = append(rows, all)
	return rows, nil
}

// FormatInstanceTable renders Tables I/II in the paper's layout.
func FormatInstanceTable(title string, rows []InstRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-6s %10s %8s %8s %8s %8s\n", "|S|", "#inst", "L1", "SL", "PD", "CD")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %10d %7.2f%% %7.2f%% %7.2f%% %7.2f%%\n",
			r.Label, r.Instances, r.AvgPct[0], r.AvgPct[1], r.AvgPct[2], r.AvgPct[3])
	}
	return b.String()
}

// ChipRow is one row of Table III.
type ChipRow struct {
	Name   string
	Nets   int
	Layers int
}

// TableIII returns the chip inventory at the configured scale.
func TableIII(cfg Config) []ChipRow {
	var rows []ChipRow
	for _, ci := range cfg.chipIndices() {
		s := chipgen.Suite(cfg.Scale)[ci]
		rows = append(rows, ChipRow{Name: s.Name, Nets: s.NNets, Layers: s.Layers})
	}
	return rows
}

// FormatTableIII renders Table III.
func FormatTableIII(rows []ChipRow, scale float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE III — INSTANCE PARAMETERS (synthetic, %.4gx of paper net counts, layer counts exact)\n", scale)
	fmt.Fprintf(&b, "%-5s %10s %8s\n", "Chip", "#nets", "#layers")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %10d %8d\n", r.Name, r.Nets, r.Layers)
	}
	return b.String()
}

// GRRow is one (chip, method) row of Tables IV/V.
type GRRow struct {
	Chip    string
	Method  router.Method
	Metrics router.Metrics
}

// GlobalRouting reproduces Tables IV/V: the full flow per chip per
// method.
func GlobalRouting(cfg Config, withBif bool) ([]GRRow, error) {
	opt := cfg.routerOptions()
	var rows []GRRow
	for _, ci := range cfg.chipIndices() {
		chip, err := cfg.generate(ci, withBif)
		if err != nil {
			return nil, err
		}
		for _, m := range Methods {
			res, err := router.Route(chip, m, opt)
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", chip.Spec.Name, m, err)
			}
			rows = append(rows, GRRow{Chip: chip.Spec.Name, Method: m, Metrics: res.Metrics})
		}
	}
	return rows, nil
}

// FormatGRTable renders Tables IV/V in the paper's layout, including the
// "all" summary block (sums for WS/TNS/WL/vias/walltime, mean ACE4) and
// a ★ marking the best method per chip per column.
func FormatGRTable(title string, rows []GRRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-5s %-4s %9s %12s %8s %10s %10s %12s\n",
		"Chip", "Run", "WS[ps]", "TNS[ps]", "ACE4[%]", "WL[m]", "Vias", "Walltime")

	chips := []string{}
	byChip := map[string][]GRRow{}
	for _, r := range rows {
		if _, ok := byChip[r.Chip]; !ok {
			chips = append(chips, r.Chip)
		}
		byChip[r.Chip] = append(byChip[r.Chip], r)
	}
	star := func(rs []GRRow, val func(GRRow) float64, mi int, higherBetter bool) string {
		best := 0
		for i := range rs {
			if higherBetter && val(rs[i]) > val(rs[best]) {
				best = i
			}
			if !higherBetter && val(rs[i]) < val(rs[best]) {
				best = i
			}
		}
		if best == mi {
			return "*"
		}
		return " "
	}
	var sum [4]router.Metrics
	for _, chip := range chips {
		rs := byChip[chip]
		sort.Slice(rs, func(a, b int) bool { return rs[a].Method < rs[b].Method })
		for mi, r := range rs {
			m := r.Metrics
			fmt.Fprintf(&b, "%-5s %-4s %8.0f%s %11.0f%s %7.2f%s %9.4f%s %9d%s %12s\n",
				chip, r.Method.String(),
				m.WS, star(rs, func(r GRRow) float64 { return r.Metrics.WS }, mi, true),
				m.TNS, star(rs, func(r GRRow) float64 { return r.Metrics.TNS }, mi, true),
				m.ACE4, star(rs, func(r GRRow) float64 { return r.Metrics.ACE4 }, mi, false),
				m.WLm, star(rs, func(r GRRow) float64 { return r.Metrics.WLm }, mi, false),
				m.Vias, star(rs, func(r GRRow) float64 { return float64(r.Metrics.Vias) }, mi, false),
				m.Walltime.Round(1e6))
			sum[mi].WS += m.WS
			sum[mi].TNS += m.TNS
			sum[mi].ACE4 += m.ACE4
			sum[mi].WLm += m.WLm
			sum[mi].Vias += m.Vias
			sum[mi].Walltime += m.Walltime
		}
	}
	for mi, m := range Methods {
		s := sum[mi]
		fmt.Fprintf(&b, "%-5s %-4s %8.0f  %11.0f  %7.2f  %9.4f  %9d  %12s\n",
			"all", m.String(), s.WS, s.TNS, s.ACE4/float64(len(chips)), s.WLm, s.Vias, s.Walltime.Round(1e6))
	}
	return b.String()
}

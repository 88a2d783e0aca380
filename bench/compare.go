package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkDef is the part of BENCHMARK.json -compare reads.
type benchmarkDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// spread is one side's median and quartiles of a metric.
type spread struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	values []float64
}

func newSpread(xs []float64) spread {
	return spread{N: len(xs), Median: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), values: xs}
}

// rel is the spread's interquartile distance as a share of its median.
func (s spread) rel() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / abs(s.Median)
}

// runCompare reads run records (from -out) and compares the runs before
// "--" (the parent) with those after it (the change), per workload and
// metric, under BENCHMARK.json's bounds. With no "--" it summarizes the one
// side, and out (if set) receives the summary as JSON.
func runCompare(w io.Writer, benchPath string, args []string, out string) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var def benchmarkDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	parentFiles, changeFiles := args, []string(nil)
	for i, a := range args {
		if a == "--" {
			parentFiles, changeFiles = args[:i], args[i+1:]
		}
	}
	parent, err := loadRecords(parentFiles)
	if err != nil {
		return err
	}
	if len(parent) == 0 {
		return fmt.Errorf("-compare: no run records given")
	}
	if changeFiles == nil {
		return summarize(w, def, parent, out)
	}
	change, err := loadRecords(changeFiles)
	if err != nil {
		return err
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1,q3]\tchange median [q1,q3]\tchange wins\tverdict")
	for _, wl := range workloadsIn(parent) {
		p, c := parent[wl], change[wl]
		if len(c) == 0 {
			fmt.Fprintf(tw, "%s\t-\t%d runs\tno runs\t-\tunresolved\n", wl, len(p))
			continue
		}
		pf, pt := failures(p)
		cf, ct := failures(c)
		fmt.Fprintf(tw, "%s\tops.failed\t%d/%d (%.4f)\t%d/%d (%.4f)\t-\t%s\n", wl, pf, pt, share(pf, pt), cf, ct, share(cf, ct), failVerdict(pf, pt, cf, ct))
		for _, m := range def.EndToEnd {
			ps, cs := side(p, m.Name, false), side(c, m.Name, false)
			if ps.N == 0 || cs.N == 0 {
				continue
			}
			wins := winShare(ps.values, cs.values, m.Better)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.2f\t%s\n", wl, m.Name, fmtSpread(ps), fmtSpread(cs), wins, verdict(ps, cs, m.Better, m.Bound, wins))
		}
		for _, m := range def.PerLayer {
			ps, cs := side(p, m.Name, true), side(c, m.Name, true)
			if ps.N == 0 || cs.N == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.2f\t(layer)\n", wl, m.Name, fmtSpread(ps), fmtSpread(cs), winShare(ps.values, cs.values, m.Better))
		}
	}
	return tw.Flush()
}

// summarize prints (and optionally writes) each workload's median and
// quartiles per end-to-end metric, the form the committed baseline takes.
func summarize(w io.Writer, def benchmarkDef, recs map[string][]*record, out string) error {
	type entry struct {
		Runs    int               `json:"runs"`
		Seeds   []int64           `json:"seeds"`
		Failed  int               `json:"failed"`
		Golden  string            `json:"golden_digest,omitempty"`
		Metrics map[string]spread `json:"metrics"`
	}
	sum := struct {
		Host      host               `json:"host"`
		Bounds    map[string]float64 `json:"bounds"`
		Workloads map[string]entry   `json:"workloads"`
	}{Bounds: map[string]float64{}, Workloads: map[string]entry{}}
	for _, m := range def.EndToEnd {
		sum.Bounds[m.Name] = m.Bound
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian [q1,q3]\tspread")
	for _, wl := range workloadsIn(recs) {
		f, _ := failures(recs[wl])
		e := entry{Runs: len(recs[wl]), Failed: f, Golden: goldenDigests[wl], Metrics: map[string]spread{}}
		for _, rec := range recs[wl] {
			e.Seeds = append(e.Seeds, rec.Seed)
			sum.Host = rec.Host
		}
		for _, m := range def.EndToEnd {
			s := side(recs[wl], m.Name, false)
			if s.N == 0 {
				continue
			}
			e.Metrics[m.Name] = s
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\n", wl, m.Name, fmtSpread(s), s.rel())
		}
		sum.Workloads[wl] = e
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if out == "" {
		return nil
	}
	return writeJSON(out, sum)
}

func loadRecords(files []string) (map[string][]*record, error) {
	out := map[string][]*record{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out[rec.Workload] = append(out[rec.Workload], &rec)
	}
	return out, nil
}

func workloadsIn(recs map[string][]*record) []string {
	var names []string
	for wl := range recs {
		names = append(names, wl)
	}
	sort.Strings(names)
	return names
}

// side collects one metric over a side's runs, in the order given.
func side(recs []*record, name string, layer bool) spread {
	var xs []float64
	for _, rec := range recs {
		vals := rec.EndToEnd
		if layer {
			vals = rec.PerLayer
		}
		if v, ok := vals[name]; ok {
			xs = append(xs, v)
		}
	}
	return newSpread(xs)
}

func failures(recs []*record) (failed, attempted int) {
	for _, rec := range recs {
		failed += rec.Failed
		attempted += rec.Attempted
	}
	return failed, attempted
}

func share(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// failVerdict compares the failed-operation shares: a change may not fail
// more of its operations than the parent did.
func failVerdict(pf, pt, cf, ct int) string {
	if share(cf, ct) > share(pf, pt) {
		return "regressed"
	}
	return "no-worse"
}

// better reports whether a reads better than b in the metric's direction.
func better(a, b float64, dir string) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

// winShare pairs the i-th parent run with the i-th change run (the runs
// alternate) and returns the share of pairs the change reads better in;
// ties count for neither side.
func winShare(parent, change []float64, dir string) float64 {
	n := min(len(parent), len(change))
	wins := 0
	for i := 0; i < n; i++ {
		if better(change[i], parent[i], dir) {
			wins++
		}
	}
	return share(wins, n)
}

// minPairs is the fewest alternating pairs a gain may rest on.
const minPairs = 10

// verdict applies the acceptance rules: a gain needs at least minPairs
// pairs, at least nine tenths of them won, and a median difference beyond
// the parent's interquartile distance; a side whose spread is wider than
// the bound leaves the metric unresolved unless every change run beats
// every parent run; otherwise the change regresses when its median is
// worse than the parent's by more than the bound.
func verdict(p, c spread, dir string, bound, wins float64) string {
	pairs := min(p.N, c.N)
	if pairs >= minPairs && better(c.Median, p.Median, dir) && wins >= 0.9 && abs(c.Median-p.Median) > p.Q3-p.Q1 {
		return "improved"
	}
	if max(p.rel(), c.rel()) > bound && !allBetter(c.values, p.values, dir) {
		return "unresolved"
	}
	worse := (c.Median - p.Median) / abs(p.Median)
	if dir == "higher" {
		worse = -worse
	}
	if p.Median != 0 && worse > bound {
		return "regressed"
	}
	return "no-worse"
}

func allBetter(change, parent []float64, dir string) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p, dir) {
				return false
			}
		}
	}
	return true
}

func fmtSpread(s spread) string {
	return fmt.Sprintf("%.4g [%.4g,%.4g] n=%d", s.Median, s.Q1, s.Q3, s.N)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

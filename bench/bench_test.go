package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestMain(m *testing.M) {
	// flow-dp2 spawns its worker by re-running this executable with
	// -worker first (dist.CLI); here that executable is the test binary.
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// tinyFlow is a scale that exists only here: every stage runs, in a
// fraction of a second.
var tinyFlow = flowScale{N: 64, Epochs: 1}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload, seed: 7, seconds: 1, trace: trace,
		setups: 1, flow: tinyFlow, smoke: tinyFlow, tmp: t.TempDir(), log: io.Discard,
	}
}

// benchmarkFile is BENCHMARK.json, decoded.
type benchmarkFile struct {
	benchmarkDef
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads and metric
// units in step with the ones this package measures.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchmark(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloadNames())
	}
	var e2e, layers []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, code reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, code reports %v", layers, perLayer)
	}
}

// TestWorkloadsEmitEveryMetric runs every workload, traced, at the tiny
// scale: every check must pass and every metric BENCHMARK.json names must
// be reported, the end-to-end ones non-zero.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	b := readBenchmark(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			rec, err := runWorkload(tinyOptions(t, name, true))
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 {
				t.Fatalf("correct=%v failed=%d of %d; phases %+v", rec.Correct, rec.Failed, rec.Attempted, rec.Phases)
			}
			for _, m := range b.EndToEnd {
				if v, ok := rec.EndToEnd[m.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end %s = %v (reported %v), want > 0", m.Name, v, ok)
				}
			}
			for _, m := range b.PerLayer {
				got, ok := rec.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (reported %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if cov := rec.PerLayer["trace.coverage"]; cov < 0.5 || cov > 1.5 {
				t.Errorf("trace.coverage = %v", cov)
			}
		})
	}
}

// TestWrongDigestIsAFailedOperation: a release that does not match the
// expected digest counts as a failed operation and makes the run incorrect.
func TestWrongDigestIsAFailedOperation(t *testing.T) {
	o := tinyOptions(t, "flow-cold", false)
	o.wantDigest = strings.Repeat("0", 64)
	rec, err := runWorkload(o)
	if err != nil {
		t.Fatal(err)
	}
	var reps int
	for _, p := range rec.Phases {
		if p.Name == "flow" {
			reps = p.Attempted
		}
	}
	if rec.Correct || reps < minReps || rec.Failed != reps {
		t.Fatalf("correct=%v failed=%d of %d repetitions, want an incorrect run with every repetition failed", rec.Correct, rec.Failed, reps)
	}
}

// TestParseReport pins the parser against a live obs.Tracer's report.
func TestParseReport(t *testing.T) {
	tr := obs.NewTracer()
	now := time.Unix(0, 0)
	tr.SetNow(func() time.Time { return now })
	core := tr.Span("core/train")
	now = now.Add(1500 * time.Millisecond)
	core.End()
	tr.Add("train/epoch", 1200*time.Millisecond, 3)
	tr.Add("train/epoch/forward", 340*time.Microsecond, 30)
	tr.Add("train/epoch/backward", 2*time.Minute+5*time.Second, 30)
	got, err := parseReport(tr.Report())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"core":                 0,
		"core/train":           1.5,
		"train":                0,
		"train/epoch":          1.2,
		"train/epoch/forward":  340e-6,
		"train/epoch/backward": 125,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseReport = %v, want %v", got, want)
	}
	if _, err := parseReport("no spans recorded\n"); err == nil {
		t.Error("a report without spans parsed")
	}
}

// TestVerdict pins -compare's acceptance rules.
func TestVerdict(t *testing.T) {
	s := func(xs ...float64) spread { return newSpread(xs) }
	ten := func(base float64) spread {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + float64(i)
		}
		return newSpread(xs)
	}
	for _, tc := range []struct {
		name        string
		parent, chg spread
		dir         string
		bound, wins float64
		want        string
	}{
		{"faster in every pair", ten(100), ten(80), "lower", 0.1, 1, "improved"},
		{"too few pairs for a gain", s(100, 101, 102, 103), s(80, 81, 82, 83), "lower", 0.1, 1, "no-worse"},
		{"within the bound", s(100, 101, 102, 103), s(103, 104, 105, 106), "lower", 0.1, 0, "no-worse"},
		{"beyond the bound", s(100, 101, 102, 103), s(120, 121, 122, 123), "lower", 0.1, 0, "regressed"},
		{"throughput dropped", s(100, 101, 102, 103), s(80, 81, 82, 83), "higher", 0.1, 0, "regressed"},
		{"spread wider than the bound", s(60, 100, 140, 180), s(70, 110, 150, 190), "lower", 0.1, 0.5, "unresolved"},
	} {
		if got := verdict(tc.parent, tc.chg, tc.dir, tc.bound, tc.wins); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

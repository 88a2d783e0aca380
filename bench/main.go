// Command bench is the repository's benchmark: one harness for the paper's
// attack flow and for the serving round trip, with named workloads, a fixed
// set of end-to-end metrics, and a traced per-layer breakdown.
//
//	bash bench/run.sh -workload <name|all> [-seed 7] [-seconds 24] [-trace 0|1] [-out run.json]
//	bash bench/run.sh -compare parent*.json -- change*.json
//
// Every metric is printed as "name value unit"; the last line of standard
// output is one JSON object {"correct","attempted","failed","metrics"}.
// Outputs are checked as they are produced (release digests, payload
// quality floors, bit-identical served logits); a failed check counts as a
// failed operation and makes the exit code non-zero. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
)

// metricDef names one metric and its unit. The lists below are the
// benchmark's whole metric surface; BENCHMARK.json names the same metrics
// with the same units (bench_test.go keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd metrics are what a user of the system sees. Every workload
// reports every one of them; what an "operation" is depends on the
// workload (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"lat_p50_ms", "ms"},
	{"lat_tail_ms", "ms"},
	{"throughput", "1/s"},
	{"rss_peak_mb", "MB"},
}

// perLayer metrics come from a traced run (-trace 1). A layer the workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"core.split_s", "s"},
	{"core.preprocess_s", "s"},
	{"core.train_s", "s"},
	{"core.quantize_s", "s"},
	{"core.finetune_s", "s"},
	{"core.extract_s", "s"},
	{"modelio.export_s", "s"},
	{"train.forward_s", "s"},
	{"train.backward_s", "s"},
	{"train.regularizer_s", "s"},
	{"train.optimizer_s", "s"},
	{"train.exchange_s", "s"},
	{"train.reduce_s", "s"},
	{"dist.exchange_wait_s", "s"},
	{"artifact.write_mb", "MB"},
	{"artifact.read_mb", "MB"},
	{"attack.test_acc", "ratio"},
	{"attack.payload_ssim", "ratio"},
	{"attack.payload_recog_frac", "ratio"},
	{"nn.eval_ms.b1", "ms"},
	{"nn.eval_ms.b16", "ms"},
	{"serve.queue_ms.p50", "ms"},
	{"serve.queue_ms.p99", "ms"},
	{"serve.compute_ms.p50", "ms"},
	{"serve.batch_mean", "count"},
	{"serve.rejected", "count"},
	{"http.overhead_ms.p50", "ms"},
	{"api.decode_ms.b1", "ms"},
	{"api.decode_ms.b32", "ms"},
	{"gateway.overhead_ms.p50", "ms"},
	{"gateway.retries", "count"},
	{"gateway.sheds", "count"},
	{"gateway.replica_share_max", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_pct", "%"},
	{"loadgen.overshoot_p99_ms", "ms"},
}

// workloads maps each workload name to the function that runs it, in the
// order -workload all runs them.
var workloads = []struct {
	name string
	run  func(*runner) error
}{
	{"flow-cold", runFlowCold},
	{"flow-dp2", runFlowDP2},
	{"serve-open", runServeOpen},
	{"fleet-batch", runFleetBatch},
}

// options fix what one benchmark run does. main fills them from flags; the
// test builds its own smoke-scale values.
type options struct {
	workload string
	seed     int64
	// seconds is the measured phase's length.
	seconds float64
	trace   bool
	// setups is how many times the workload's set-up runs; setup_s is the
	// median, and the last set-up's state is the one measured.
	setups int
	// flow is the measured flow's scale; smoke is the release every set-up
	// trains.
	flow, smoke flowScale
	// wantDigest, when set, is the release digest every flow repetition must
	// produce (the golden for seed 7).
	wantDigest string
	// tmp holds the run's scratch files (stores, mailboxes); removed by the
	// caller.
	tmp string
	// log receives the human-readable lines.
	log io.Writer
}

// phase counts the operations of one part of a run.
type phase struct {
	Name      string  `json:"name"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Seconds   float64 `json:"seconds"`
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what -out writes: the summary plus everything -compare and a
// reader of the baseline need.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	summary
	// EndToEnd and PerLayer hold every metric the run measured; Metrics
	// above holds the set the run's mode reports.
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	Phases   []*phase           `json:"phases"`
	Host     host               `json:"host"`
}

type host struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

// runner carries one workload run's options and accumulates its results.
type runner struct {
	options
	phases   []*phase
	e2e      map[string]float64
	layers   map[string]float64
	failures []string
}

// phase opens a named phase; the caller counts into it and closes it.
func (r *runner) phase(name string) *phase {
	p := &phase{Name: name}
	r.phases = append(r.phases, p)
	return p
}

// check counts one operation into p, failing it with err when non-nil. The
// first few failures are kept for the report.
func (r *runner) check(p *phase, err error) {
	p.Attempted++
	if err == nil {
		return
	}
	p.Failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", p.Name, err))
	}
}

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.log, format+"\n", args...)
}

// timeSetups runs setup opts.setups times and records the median duration
// as setup_s. teardown releases every set-up's state but the last one's.
func (r *runner) timeSetups(setup func() error, teardown func()) error {
	durs := make([]float64, 0, r.setups)
	for i := 0; i < r.setups; i++ {
		if i > 0 {
			teardown()
		}
		start := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		durs = append(durs, time.Since(start).Seconds())
	}
	r.e2e["setup_s"] = median(durs)
	return nil
}

// runWorkload runs one workload and returns its record. An error means the
// run could not be carried out at all (as opposed to a failed check).
func runWorkload(o options) (*record, error) {
	r := &runner{options: o, e2e: map[string]float64{}, layers: map[string]float64{}}
	var run func(*runner) error
	for _, w := range workloads {
		if w.name == o.workload {
			run = w.run
		}
	}
	if run == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if err := run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	r.e2e["rss_peak_mb"] = peakRSSMB()

	rec := &record{
		Workload: o.workload, Seed: o.seed, Trace: o.trace,
		EndToEnd: r.e2e, Phases: r.phases,
		Host: host{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH},
	}
	for _, p := range r.phases {
		rec.Attempted += p.Attempted
		rec.Failed += p.Failed
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	for _, d := range endToEnd {
		if _, ok := r.e2e[d.name]; !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", o.workload, d.name)
		}
	}
	defs, vals := endToEnd, r.e2e
	if o.trace {
		rec.PerLayer = r.layers
		defs, vals = perLayer, r.layers
	}
	rec.Metrics = map[string]metricValue{}
	for _, d := range defs {
		rec.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	for _, f := range r.failures {
		fmt.Fprintf(o.log, "FAILED %s\n", f)
	}
	return rec, nil
}

// printRecord writes the human-readable metric lines, then the summary as
// the last line.
func printRecord(w io.Writer, rec *record) error {
	for _, p := range rec.Phases {
		fmt.Fprintf(w, "ops.%s attempted=%d failed=%d seconds=%.3f\n", p.Name, p.Attempted, p.Failed, p.Seconds)
	}
	for _, d := range endToEnd {
		if v, ok := rec.EndToEnd[d.name]; ok {
			fmt.Fprintf(w, "%s %.6g %s\n", d.name, v, d.unit)
		}
	}
	if rec.Trace {
		for _, d := range perLayer {
			fmt.Fprintf(w, "%s %.6g %s\n", d.name, rec.PerLayer[d.name], d.unit)
		}
	}
	line, err := json.Marshal(rec.summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// peakRSSMB is the peak resident set of this process or of any child it
// waited for (the flow-dp2 worker), in MiB.
func peakRSSMB() float64 {
	// Getrusage fails only for an invalid "who" or buffer.
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return float64(max(self.Maxrss, kids.Maxrss)) / 1024 // Maxrss is KiB on Linux
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and dispatches to a workload, -workload all, -compare,
// or (when spawned by flow-dp2) the data-parallel worker. It returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 7, "seed for the dataset, the input pool and the arrival schedule")
	seconds := fs.Float64("seconds", 24, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	out := fs.String("out", "", "also write the run's full record as JSON to this file (with -workload all, one file per workload)")
	compare := fs.Bool("compare", false, "compare run records, reading bounds from ./BENCHMARK.json: -compare parent.json... [-- change.json...]")
	flowN := fs.Int("flow-n", 0, "dataset size of the flow a flow-dp2 worker joins (set by the coordinator)")
	flowEpochs := fs.Int("flow-epochs", 0, "training epochs of the flow a flow-dp2 worker joins (set by the coordinator)")
	var dcli dist.CLI
	dcli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1 and -seconds positive")
		return 2
	}

	switch {
	case *compare:
		if err := runCompare(stdout, "BENCHMARK.json", fs.Args(), *out); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	case dcli.Worker:
		if err := runWorker(&dcli, flowScale{N: *flowN, Epochs: *flowEpochs}, *seed); err != nil {
			fmt.Fprintln(stderr, "bench worker:", err)
			return 1
		}
		return 0
	case *workload == "all":
		return runAll(stdout, stderr, *seed, *seconds, *trace, *out)
	case *workload == "":
		fmt.Fprintln(stderr, "bench: -workload is required")
		return 2
	}

	tmp, err := os.MkdirTemp("", "dacbench-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	o := options{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		setups: 3, flow: measuredFlow, smoke: smokeFlow, tmp: tmp, log: stdout,
	}
	if *seed == goldenSeed {
		o.wantDigest = goldenDigests[*workload]
	}
	rec, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		if err := writeJSON(*out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := printRecord(stdout, rec); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload, each in its own process, and ends with one
// summary line whose metric names are prefixed by the workload.
func runAll(stdout, stderr io.Writer, seed int64, seconds float64, trace int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	all := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range workloadNames() {
		args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
		if out != "" {
			args = append(args, "-out", perWorkloadPath(out, name))
		}
		fmt.Fprintf(stdout, "== %s\n", name)
		s, err := runChild(exe, args, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			all.Correct = false
			continue
		}
		all.Correct = all.Correct && s.Correct
		all.Attempted += s.Attempted
		all.Failed += s.Failed
		for k, v := range s.Metrics {
			all.Metrics[name+"."+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !all.Correct {
		return 1
	}
	return 0
}

// runChild runs one workload process, copying its output through, and
// parses the summary from its last line.
func runChild(exe string, args []string, stdout, stderr io.Writer) (summary, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return summary{}, err
	}
	if err := cmd.Start(); err != nil {
		return summary{}, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	for sc.Scan() {
		last = sc.Text()
		fmt.Fprintln(stdout, last)
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	var s summary
	if err := json.Unmarshal([]byte(last), &s); err != nil {
		return summary{}, errors.Join(fmt.Errorf("no summary line: %w", err), scanErr, waitErr)
	}
	return s, nil
}

// perWorkloadPath turns run.json into run.<workload>.json.
func perWorkloadPath(path, workload string) string {
	if i := strings.LastIndex(path, "."); i > strings.LastIndex(path, "/") {
		return path[:i] + "." + workload + path[i:]
	}
	return path + "." + workload
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks, sorting a copy; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// Overhead guard for the observability layer: the instrumented forward
// pass (obs enabled) must cost at most a few percent over the same pass
// with obs disabled, and the fully traced serving path (request tracing +
// per-client accounting on) must cost at most the same few percent over
// untraced serving. Each comparison is a series of short off/on pairs
// that alternate which side runs first, and the guard reads the median
// per-pair overhead, so host drift between pairs cancels instead of
// landing in the difference. Lives in package obs_test so it can drive the
// real nn/compute/serve stack (obs_test → serve → obs is cycle-free).
package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"repro/internal/modelio"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/train"
)

// emitBench, when set to a path, makes TestEmitObsBench measure the
// instrumentation overhead and write the numbers there as JSON. Wired to
// `make obs-bench`; empty (the default) skips the test so the regular
// suite stays fast and timing-free.
var emitBench = flag.String("emit-bench", "", "write instrumentation overhead numbers (BENCH_obs.json) to this path")

// maxEnabledOverheadPct is the guard: enabling the full metrics + span
// instrumentation may cost at most this much, as the median per-pair
// overhead of each comparison.
const maxEnabledOverheadPct = 2.0

func benchModel() (*nn.Model, *tensor.Tensor) {
	m := nn.NewResNet(nn.ResNetConfig{
		InC: 1, InH: 12, InW: 12, Classes: 10,
		Widths: []int{6, 12, 24}, Blocks: []int{2, 2, 2}, Seed: 1,
	})
	m.SetThreads(0)
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(32, 1, 12, 12).RandN(rng, 0, 1)
	return m, x
}

// Each side of a pair runs its operation back to back for about
// pairWindow, and every comparison takes obsPairs pairs.
const (
	obsPairs   = 401
	pairWindow = 10 * time.Millisecond
)

// opsPerSide warms op up and returns how many back-to-back calls fill
// pairWindow (at least one).
func opsPerSide(op func()) int {
	op()
	n := 0
	for start := time.Now(); time.Since(start) < pairWindow; n++ {
		op()
	}
	return max(n, 1)
}

// nsPerOp runs op n times back to back and returns the mean wall time per
// call.
func nsPerOp(op func(), n int) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		op()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// pairReport is one guarded comparison: the median and quartiles of the
// per-pair overhead (on−off)/off in percent, and each pair's off and on
// wall time per op in ns.
type pairReport struct {
	MedianPct float64    `json:"median_overhead_pct"`
	Q1Pct     float64    `json:"q1_overhead_pct"`
	Q3Pct     float64    `json:"q3_overhead_pct"`
	Pairs     [][2]int64 `json:"pairs_off_on_ns"`
}

// overheadPairs measures op in obsPairs off/on pairs, set switching the
// instrumentation, with even pairs running off first and odd pairs on
// first. The collector is off inside a pair and runs between pairs, so a
// collection never lands in one side; what enabling obs does to
// allocation is gated by exact counts instead (allocs_test.go). It leaves
// the instrumentation off.
func overheadPairs(set func(on bool), op func()) pairReport {
	var rep pairReport
	set(false)
	n := opsPerSide(op)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	overheads := make([]float64, 0, obsPairs)
	for i := 0; i < obsPairs; i++ {
		var off, on float64
		runtime.GC()
		for _, side := range [2]bool{i%2 == 1, i%2 == 0} {
			set(side)
			if side {
				on = nsPerOp(op, n)
			} else {
				off = nsPerOp(op, n)
			}
		}
		rep.Pairs = append(rep.Pairs, [2]int64{int64(off), int64(on)})
		overheads = append(overheads, (on-off)/off*100)
	}
	set(false)
	sort.Float64s(overheads)
	rep.Q1Pct, rep.MedianPct, rep.Q3Pct = quantile(overheads, 0.25), quantile(overheads, 0.5), quantile(overheads, 0.75)
	return rep
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// trainOp returns one sharded training run (Shards > 1, single process)
// as an operation. Enabling obs turns on the stage machine's per-step
// clock reads and the per-epoch span recording — including the
// exchange/reduce spans — so this pair of measurements guards the sharded
// trainer's instrumentation the same way the forward-pass pair guards the
// layer instrumentation.
func trainOp() func() {
	rng := rand.New(rand.NewSource(21))
	n := 48
	x := tensor.New(n, 1, 8, 8).RandN(rng, 0, 1)
	y := make([]int, n)
	for i := range y {
		y[i] = i % 4
	}
	return func() {
		m := nn.NewResNet(nn.ResNetConfig{
			InC: 1, InH: 8, InW: 8, Classes: 4,
			Widths: []int{4, 8}, Blocks: []int{1, 1}, Seed: 22,
		})
		train.Run(m, x, y, train.Config{
			Epochs: 1, BatchSize: 8, Shards: 2,
			Optimizer: train.NewSGD(0.05, 0.9, 0),
			Seed:      23, Threads: 1,
		})
	}
}

// servingBench builds an in-process serving stack for the tracing-overhead
// measurement: one released model behind the real HTTP handler, MaxBatch 1
// so every request is its own batch. Returns the server (for
// EnableTracing) and a ready predict body.
func servingBench(t *testing.T) (*serve.Server, []byte) {
	cfg := nn.ResNetConfig{
		InC: 1, InH: 12, InW: 12, Classes: 10,
		Widths: []int{6, 12, 24}, Blocks: []int{2, 2, 2}, Seed: 1,
	}
	m := nn.NewResNet(cfg)
	rng := rand.New(rand.NewSource(3))
	for _, p := range m.Params() {
		p.Value.RandN(rng, 0, 0.1)
	}
	m.ForwardTrain(tensor.New(4, 1, 12, 12).RandN(rng, 0, 1))
	rm, err := modelio.Export(m, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.bin")
	if err := modelio.Save(path, rm); err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(serve.Options{
		MaxBatch: 1, QueueDepth: 64, Threads: 1,
		Obs: obs.NewRegistry(),
	})
	t.Cleanup(reg.Close)
	en, err := reg.LoadFile("bench", path)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, en.Model().InputLen())
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	body, err := json.Marshal(map[string]any{"model": "bench", "input": in})
	if err != nil {
		t.Fatal(err)
	}
	return serve.NewServer(reg, nil), body
}

// serveOp returns one full in-process /v1/predict round trip through h
// as an operation.
func serveOp(t *testing.T, h http.Handler, body []byte) func() {
	return func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("predict status %d: %s", w.Code, w.Body.String())
		}
	}
}

type obsBenchReport struct {
	Threads          int     `json:"threads"`
	Notes            string  `json:"notes"`
	GuardOverheadPct float64 `json:"guard_overhead_pct"`
	// Forward: one batched forward pass with obs disabled vs enabled.
	Forward pairReport `json:"forward"`
	// Serve: one in-process /v1/predict round trip with request tracing +
	// per-client accounting off vs on.
	Serve pairReport `json:"serve"`
	// Train: one Shards=2 training run with the stage-machine timing
	// (forward/backward/exchange/reduce spans) off vs on.
	Train pairReport `json:"train"`
}

func TestEmitObsBench(t *testing.T) {
	if *emitBench == "" {
		t.Skip("pass -emit-bench=<path> (make obs-bench) to measure instrumentation overhead")
	}
	m, x := benchModel()
	forward := overheadPairs(obs.Enable, func() { m.Forward(x) })
	obs.Default.Reset()

	// Serving: the same HTTP round trip with request tracing off vs on
	// (trace records, spans, timing headers, per-client series). obs.Enable
	// stays off in both so the measurement isolates the tracing layer — the
	// deep per-dispatch instrumentation is a separate subsystem guarded by
	// the forward-pass numbers above, and on a single-sample request its
	// per-dispatch cost would swamp the per-request tracing cost.
	srv, body := servingBench(t)
	serving := overheadPairs(srv.EnableTracing, serveOp(t, srv.Handler(), body))

	// Sharded trainer: the stage machine's per-step timing and per-epoch
	// exchange/reduce span recording turn on with obs.
	training := overheadPairs(obs.Enable, trainOp())
	obs.Default.Reset()

	rep := obsBenchReport{
		Threads: runtime.GOMAXPROCS(0),
		Notes: fmt.Sprintf("%d off/on pairs per comparison, each side run back to back for %v; "+
			"even pairs run off first, odd pairs on first, the collector runs between pairs, "+
			"never inside one, and the guard reads the median per-pair overhead. The serving "+
			"round trip runs against an engine with no flush timer, so it measures decode, "+
			"forward, encode and tracing, never a batching wait.",
			obsPairs, pairWindow),
		GuardOverheadPct: maxEnabledOverheadPct,
		Forward:          forward,
		Serve:            serving,
		Train:            training,
	}
	comparisons := []struct {
		name string
		r    pairReport
	}{{"enabled instrumentation", forward}, {"traced serving", serving}, {"timed sharded training", training}}
	for _, c := range comparisons {
		t.Logf("%s: median overhead %+.2f%% (quartiles %+.2f%%, %+.2f%%) over %d pairs",
			c.name, c.r.MedianPct, c.r.Q1Pct, c.r.Q3Pct, len(c.r.Pairs))
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*emitBench, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", *emitBench)

	for _, c := range comparisons {
		if c.r.MedianPct > maxEnabledOverheadPct {
			t.Errorf("%s median overhead %.2f%% exceeds the %.1f%% guard", c.name, c.r.MedianPct, maxEnabledOverheadPct)
		}
	}
}

// Overhead guard for the observability layer: the instrumented forward
// pass (obs enabled) must cost at most a few percent over the same pass
// with obs disabled, and the fully traced serving path (request tracing +
// per-client accounting on) must cost at most the same few percent over
// untraced serving. Lives in package obs_test so it can drive the real
// nn/compute/serve stack (obs_test → serve → obs is cycle-free).
package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

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
// instrumentation may cost at most this much on a batched forward pass.
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

// forwardNsPerOp measures one forward pass at the current obs.Enable state,
// taking the minimum over rounds to reject scheduler noise.
func forwardNsPerOp(m *nn.Model, x *tensor.Tensor, rounds int) float64 {
	best := math.MaxFloat64
	for r := 0; r < rounds; r++ {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Forward(x)
			}
		})
		if v := float64(res.NsPerOp()); v < best {
			best = v
		}
	}
	return best
}

// trainNsPerOp measures one sharded training run (Shards > 1, single
// process) at the current obs.Enable state, minimum over rounds. Enabling
// obs turns on the stage machine's per-step clock reads and the per-epoch
// span recording — including the new exchange/reduce spans — so this pair
// of measurements guards the sharded trainer's instrumentation the same way
// the forward-pass pair guards the layer instrumentation.
func trainNsPerOp(rounds int) float64 {
	rng := rand.New(rand.NewSource(21))
	n := 48
	x := tensor.New(n, 1, 8, 8).RandN(rng, 0, 1)
	y := make([]int, n)
	for i := range y {
		y[i] = i % 4
	}
	best := math.MaxFloat64
	for r := 0; r < rounds; r++ {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
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
		})
		if v := float64(res.NsPerOp()); v < best {
			best = v
		}
	}
	return best
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

// serveNsPerOp measures one full in-process /v1/predict round trip at the
// current tracing state, minimum over rounds.
func serveNsPerOp(t *testing.T, h http.Handler, body []byte, rounds int) float64 {
	best := math.MaxFloat64
	for r := 0; r < rounds; r++ {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("predict status %d: %s", w.Code, w.Body.String())
				}
			}
		})
		if v := float64(res.NsPerOp()); v < best {
			best = v
		}
	}
	return best
}

type obsBenchReport struct {
	Threads          int     `json:"threads"`
	Notes            string  `json:"notes"`
	DisabledNsPerOp  float64 `json:"disabled_ns_per_op"`
	EnabledNsPerOp   float64 `json:"enabled_ns_per_op"`
	OverheadPct      float64 `json:"overhead_pct"`
	GuardOverheadPct float64 `json:"guard_overhead_pct"`
	// Serving measurement: one in-process /v1/predict round trip with
	// request tracing + per-client accounting off (plain) vs on (traced).
	ServePlainNsPerOp  float64 `json:"serve_plain_ns_per_op"`
	ServeTracedNsPerOp float64 `json:"serve_traced_ns_per_op"`
	ServeOverheadPct   float64 `json:"serve_overhead_pct"`
	// Sharded-trainer measurement: one Shards=2 training run with the
	// stage-machine timing (forward/backward/exchange/reduce spans) off vs
	// on.
	TrainPlainNsPerOp float64 `json:"train_plain_ns_per_op"`
	TrainTimedNsPerOp float64 `json:"train_timed_ns_per_op"`
	TrainOverheadPct  float64 `json:"train_overhead_pct"`
}

func TestEmitObsBench(t *testing.T) {
	if *emitBench == "" {
		t.Skip("pass -emit-bench=<path> (make obs-bench) to measure instrumentation overhead")
	}
	m, x := benchModel()
	const rounds = 3

	obs.Enable(false)
	disabled := forwardNsPerOp(m, x, rounds)

	obs.Enable(true)
	enabled := forwardNsPerOp(m, x, rounds)
	obs.Enable(false)
	obs.Default.Reset()

	// Serving: the same HTTP round trip with request tracing off vs on
	// (trace records, spans, timing headers, per-client series). obs.Enable
	// stays off in both so the measurement isolates the tracing layer — the
	// deep per-dispatch instrumentation is a separate subsystem guarded by
	// the forward-pass numbers above, and on a single-sample request its
	// per-dispatch cost would swamp the per-request tracing cost.
	api, body := servingBench(t)
	h := api.Handler()
	api.EnableTracing(false)
	servePlain := serveNsPerOp(t, h, body, rounds)
	api.EnableTracing(true)
	serveTraced := serveNsPerOp(t, h, body, rounds)
	api.EnableTracing(false)

	// Sharded trainer: the stage machine's per-step timing and per-epoch
	// exchange/reduce span recording turn on with obs.
	obs.Enable(false)
	trainPlain := trainNsPerOp(rounds)
	obs.Enable(true)
	trainTimed := trainNsPerOp(rounds)
	obs.Enable(false)
	obs.Default.Reset()

	overhead := (enabled - disabled) / disabled * 100
	serveOverhead := (serveTraced - servePlain) / servePlain * 100
	trainOverhead := (trainTimed - trainPlain) / trainPlain * 100
	rep := obsBenchReport{
		Threads: runtime.GOMAXPROCS(0),
		Notes: "minimum over 3 rounds per side. The serving round trip runs " +
			"against an engine with no flush timer (a request is flushed as " +
			"soon as the engine is free), so it measures decode, forward, " +
			"encode and tracing, never a batching wait.",
		DisabledNsPerOp:    disabled,
		EnabledNsPerOp:     enabled,
		OverheadPct:        overhead,
		GuardOverheadPct:   maxEnabledOverheadPct,
		ServePlainNsPerOp:  servePlain,
		ServeTracedNsPerOp: serveTraced,
		ServeOverheadPct:   serveOverhead,
		TrainPlainNsPerOp:  trainPlain,
		TrainTimedNsPerOp:  trainTimed,
		TrainOverheadPct:   trainOverhead,
	}
	t.Logf("forward pass: disabled %.0f ns/op, enabled %.0f ns/op, overhead %+.2f%%",
		disabled, enabled, overhead)
	t.Logf("serving: plain %.0f ns/op, traced %.0f ns/op, overhead %+.2f%%",
		servePlain, serveTraced, serveOverhead)
	t.Logf("sharded training: plain %.0f ns/op, timed %.0f ns/op, overhead %+.2f%%",
		trainPlain, trainTimed, trainOverhead)

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*emitBench, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", *emitBench)

	if overhead > maxEnabledOverheadPct {
		t.Fatalf("enabled instrumentation overhead %.2f%% exceeds the %.1f%% guard", overhead, maxEnabledOverheadPct)
	}
	if serveOverhead > maxEnabledOverheadPct {
		t.Fatalf("traced serving overhead %.2f%% exceeds the %.1f%% guard", serveOverhead, maxEnabledOverheadPct)
	}
	if trainOverhead > maxEnabledOverheadPct {
		t.Fatalf("timed sharded-training overhead %.2f%% exceeds the %.1f%% guard", trainOverhead, maxEnabledOverheadPct)
	}
}

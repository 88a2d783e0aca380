package serve

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/modelio"
	"repro/internal/nn"
	"repro/internal/quantize"
	"repro/internal/tensor"
)

// emitQuantBench, when set to a path, makes TestEmitServeQuantBench compare
// codebook-native against dequantized serving of the same quantized release
// and write the numbers there as JSON. Wired to `make serve-quant-bench`.
var emitQuantBench = flag.String("emit-quant-bench", "", "write quantized-serving comparison (BENCH_serve_quant.json) to this path")

// quantBenchArch is wider than testArch so weight reads dominate the
// forward pass the way they do in real deployments — that is where the
// codebook path's 1-byte-per-weight reads pay off.
func quantBenchArch() nn.ResNetConfig {
	return nn.ResNetConfig{
		InC: 1, InH: 12, InW: 12, Classes: 10,
		Widths: []int{16, 32}, Blocks: []int{2, 2}, Seed: 95,
	}
}

func writeQuantBenchModel(tb testing.TB) string {
	tb.Helper()
	arch := quantBenchArch()
	m := nn.NewResNet(arch)
	rng := rand.New(rand.NewSource(96))
	for _, p := range m.Params() {
		p.Value.RandN(rng, 0, 0.1)
	}
	m.ForwardTrain(tensor.New(8, arch.InC, arch.InH, arch.InW).RandN(rng, 0, 1))
	applied := quantize.QuantizeModel(m, quantize.WeightedEntropy{}, 16)
	rm, err := modelio.Export(m, arch, applied)
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "quantbench.bin")
	if err := modelio.Save(path, rm); err != nil {
		tb.Fatal(err)
	}
	return path
}

// quantThroughput drives total requests through a model loaded in the given
// mode from `clients` goroutines and returns requests/sec, the mean batch
// size the engine settled on, and the entry's resident model bytes.
func quantThroughput(tb testing.TB, path string, mode LoadMode, maxBatch, clients, total int) (reqPerSec, meanBatch float64, resident int) {
	tb.Helper()
	r := NewRegistry(Options{
		MaxBatch:   maxBatch,
		QueueDepth: 4 * clients,
		Threads:    runtime.GOMAXPROCS(0),
	})
	defer r.Close()
	f, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	en, err := r.LoadWithMode("bench", f, mode)
	f.Close()
	if err != nil {
		tb.Fatal(err)
	}
	in := testInputs(1, en.Model().InputLen(), 97)[0]

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				for {
					if _, err := predictOne(en, in); err == nil {
						break
					}
				}
			}
		}(total / clients)
	}
	wg.Wait()
	elapsed := time.Since(start)
	snap := en.Stats()
	return float64(snap.Served) / elapsed.Seconds(), snap.MeanBatch, en.ResidentBytes()
}

type quantBenchPoint struct {
	Mode          string  `json:"mode"`
	MaxBatch      int     `json:"max_batch"`
	Clients       int     `json:"clients"`
	Requests      int     `json:"requests"`
	ReqPerSec     float64 `json:"req_per_sec"`
	MeanBatch     float64 `json:"mean_batch"`
	ResidentBytes int     `json:"resident_model_bytes"`
}

type quantBenchReport struct {
	Threads       int               `json:"threads"`
	Notes         string            `json:"notes"`
	Points        []quantBenchPoint `json:"points"`
	ResidentRatio float64           `json:"native_resident_ratio"`
	SpeedRatio    float64           `json:"native_req_per_sec_ratio"`
}

func TestEmitServeQuantBench(t *testing.T) {
	if *emitQuantBench == "" {
		t.Skip("pass -emit-quant-bench=<path> (make serve-quant-bench) to compare quantized serving modes")
	}
	path := writeQuantBenchModel(t)
	const maxBatch, clients, total = 8, 16, 512

	// Best of a few rounds per mode: a throughput probe this short is at
	// the mercy of scheduler noise, and the comparison is what matters.
	best := func(mode LoadMode) quantBenchPoint {
		var p quantBenchPoint
		for round := 0; round < 3; round++ {
			rps, mean, res := quantThroughput(t, path, mode, maxBatch, clients, total)
			if rps > p.ReqPerSec {
				p = quantBenchPoint{
					MaxBatch: maxBatch, Clients: clients, Requests: total,
					ReqPerSec: rps, MeanBatch: mean, ResidentBytes: res,
				}
			}
		}
		return p
	}
	deq := best(ModeDequantized)
	deq.Mode = "dequantized"
	nat := best(ModeNative)
	nat.Mode = "codebook-native"

	rep := quantBenchReport{
		Threads: runtime.GOMAXPROCS(0),
		Notes: "same quantized release served both ways; predictions are " +
			"bit-identical (TestNativeLoadBitIdenticalPredictions). " +
			"codebook-native reads 1 byte per weight through LUT kernels and " +
			"releases the float weight copies, so resident bytes must be " +
			"strictly lower and req/s at least equal. The engine has no " +
			"flush timer: it flushes whatever is queued as soon as it is free.",
		Points:        []quantBenchPoint{deq, nat},
		ResidentRatio: float64(nat.ResidentBytes) / float64(deq.ResidentBytes),
		SpeedRatio:    nat.ReqPerSec / deq.ReqPerSec,
	}
	t.Logf("dequantized:     %8.0f req/s  resident %d bytes", deq.ReqPerSec, deq.ResidentBytes)
	t.Logf("codebook-native: %8.0f req/s  resident %d bytes", nat.ReqPerSec, nat.ResidentBytes)

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*emitQuantBench, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", *emitQuantBench)

	if nat.ResidentBytes >= deq.ResidentBytes {
		t.Fatalf("native resident %d bytes >= dequantized %d", nat.ResidentBytes, deq.ResidentBytes)
	}
	if nat.ReqPerSec < deq.ReqPerSec {
		t.Fatalf("native %f req/s < dequantized %f", nat.ReqPerSec, deq.ReqPerSec)
	}
}

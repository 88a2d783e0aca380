package serve

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// emitBench, when set to a path, makes TestEmitServeBench measure serving
// throughput across MaxBatch settings and write the numbers there as JSON.
// Wired to `make serve-bench`; empty (the default) skips the test so the
// regular suite stays fast and timing-free.
var emitBench = flag.String("emit-bench", "", "write serving throughput numbers (BENCH_serve.json) to this path")

// throughput drives total requests through a freshly loaded model from
// `clients` goroutines and returns requests/sec and the mean batch size the
// engine settled on.
func throughput(tb testing.TB, path string, maxBatch, clients, total int) (reqPerSec, meanBatch float64) {
	tb.Helper()
	r := NewRegistry(Options{
		MaxBatch:   maxBatch,
		QueueDepth: 4 * clients,
		Threads:    runtime.GOMAXPROCS(0),
	})
	defer r.Close()
	en, err := r.LoadFile("bench", path)
	if err != nil {
		tb.Fatal(err)
	}
	in := testInputs(1, en.Model().InputLen(), 90)[0]

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				// Backpressure just means retry for a throughput probe.
				for {
					if _, err := en.Predict(in); err == nil {
						break
					}
				}
			}
		}(total / clients)
	}
	wg.Wait()
	elapsed := time.Since(start)

	snap := en.Stats()
	served := float64(snap.Served)
	return served / elapsed.Seconds(), snap.MeanBatch
}

// BenchmarkServePredict reports end-to-end request latency through the full
// submit→batch→forward→respond path at several coalescing widths.
func BenchmarkServePredict(b *testing.B) {
	path := writeReleased(b, 91, true)
	for _, maxBatch := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("maxbatch=%d", maxBatch), func(b *testing.B) {
			r := NewRegistry(Options{
				MaxBatch:   maxBatch,
				QueueDepth: 256,
				Threads:    runtime.GOMAXPROCS(0),
			})
			defer r.Close()
			en, err := r.LoadFile("bench", path)
			if err != nil {
				b.Fatal(err)
			}
			in := testInputs(1, en.Model().InputLen(), 92)[0]
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := en.Predict(in); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

type benchPoint struct {
	MaxBatch  int     `json:"max_batch"`
	Clients   int     `json:"clients"`
	Requests  int     `json:"requests"`
	ReqPerSec float64 `json:"req_per_sec"`
	MeanBatch float64 `json:"mean_batch"`
}

type benchReport struct {
	Threads int          `json:"threads"`
	Notes   string       `json:"notes,omitempty"`
	Points  []benchPoint `json:"points"`
}

func TestEmitServeBench(t *testing.T) {
	if *emitBench == "" {
		t.Skip("pass -emit-bench=<path> (make serve-bench) to measure serving throughput")
	}
	path := writeReleased(t, 93, true)
	const clients, total = 16, 512
	rep := benchReport{
		Threads: runtime.GOMAXPROCS(0),
		Notes: "closed loop of 16 clients. The engine has no flush timer: it " +
			"blocks for the first request, takes everything already queued " +
			"(flushing each time max_batch fills) and flushes the rest at " +
			"once, so batches form only from requests that arrived while the " +
			"previous pass computed. The test model's forward pass takes tens " +
			"of microseconds, so few requests queue behind it and mean_batch " +
			"stays low; each point lasts tens of milliseconds, so req/s moves " +
			"by a third between runs.",
	}
	for _, maxBatch := range []int{1, 2, 4, 8, 16} {
		rps, mean := throughput(t, path, maxBatch, clients, total)
		rep.Points = append(rep.Points, benchPoint{
			MaxBatch: maxBatch, Clients: clients, Requests: total,
			ReqPerSec: rps, MeanBatch: mean,
		})
		t.Logf("max_batch=%2d  %8.0f req/s  mean batch %.2f", maxBatch, rps, mean)
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*emitBench, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", *emitBench)
}

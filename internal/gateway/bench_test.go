package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/obs"
	"repro/internal/serve"
)

// emitBench, when set to a path, makes TestEmitGatewayBench measure fleet
// throughput across pool sizes and write the numbers there as JSON. Wired
// to `make gateway-bench`; empty (the default) skips the test so the
// regular suite stays fast and timing-free.
var emitBench = flag.String("emit-bench", "", "write fleet throughput numbers (BENCH_gateway.json) to this path")

// Bench geometry. On a host with one or two cores aggregate throughput
// cannot come from CPU parallelism, so the bench fixes each replica's
// capacity explicitly — benchMaxInflight concurrent requests, each held open for
// benchHold by a wrapper in front of the replica — and scales offered load
// with the pool. Aggregate req/s then grows with replica count exactly as
// it would across machines, while the core stays far from saturated (the
// model forward is microseconds against the millisecond hold).
const (
	benchHold        = 8 * time.Millisecond
	benchMaxInflight = 2
	benchModels      = 4
	benchReqsPerRep  = 200
)

type gwBenchPoint struct {
	Replicas  int     `json:"replicas"`
	Clients   int     `json:"clients"`
	Requests  int     `json:"requests"`
	ReqPerSec float64 `json:"req_per_sec"`
	Sheds     int64   `json:"sheds"`
	Retries   int64   `json:"retries"`
}

type gwReloadReport struct {
	Replicas   int    `json:"replicas"`
	Clients    int    `json:"clients"`
	Requests   int    `json:"requests"`
	Failed     int64  `json:"failed"`
	Consistent bool   `json:"consistent_after"`
	Digest     string `json:"digest_after"`
}

type gwBenchReport struct {
	Threads       int            `json:"threads"`
	Notes         string         `json:"notes,omitempty"`
	Points        []gwBenchPoint `json:"points"`
	RollingReload gwReloadReport `json:"rolling_reload"`
}

// benchReplica is startReplica behind a handler that holds every predict
// for benchHold, which is what gives each replica a fixed capacity on a
// small host.
func benchReplica(t testing.TB, id string, store *artifact.Store) *testReplica {
	t.Helper()
	reg := serve.NewRegistry(serve.Options{
		MaxBatch:   benchMaxInflight,
		QueueDepth: 64,
		Threads:    1,
		Obs:        obs.NewRegistry(),
		Store:      store,
	})
	srv := serve.NewServer(reg, nil)
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/predict" {
			time.Sleep(benchHold)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	srv.SetReady()
	return &testReplica{id: id, reg: reg, srv: srv, ts: ts}
}

// benchFleet spins up n replicas serving the same digests, a gateway over
// them (fresh obs registry so counters are per-point), and the gateway's
// HTTP front.
func benchFleet(t testing.TB, n int, store *artifact.Store, names, digests []string) (*Gateway, *obs.Registry, *httptest.Server) {
	t.Helper()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	reg := obs.NewRegistry()
	g := New(Options{
		ProbeInterval: -1,
		MaxInflight:   benchMaxInflight,
		RetryBackoff:  -1,
		Client:        client,
		Obs:           reg,
	})
	t.Cleanup(g.Close)
	for i := 0; i < n; i++ {
		rep := benchReplica(t, fmt.Sprintf("r%d", i), store)
		for j, name := range names {
			if _, err := rep.reg.LoadDigest(name, digests[j], serve.ModeAuto); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := g.AddReplica(rep.id, rep.ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	g.ProbeAll(context.Background())
	front := httptest.NewServer(NewServer(g).Handler())
	t.Cleanup(front.Close)
	return g, reg, front
}

// hammer drives total requests through the gateway front from `clients`
// goroutines, round-robin over the model names, retrying shed (non-200)
// answers after a short pause. Returns req/s and the non-200 count before
// retries.
func hammer(t testing.TB, frontURL string, names []string, clients, total int) (reqPerSec float64, failed int64) {
	t.Helper()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	bodies := make([][]byte, len(names))
	in := testInputs(1, 64, 95)[0] // 1x8x8 flattened
	for i, name := range names {
		bodies[i] = predictBody(t, name, in)
	}
	var fails atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < total/clients; i++ {
				body := bodies[(c+i)%len(bodies)]
				for {
					resp, err := client.Post(frontURL+"/v1/predict", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					status := resp.StatusCode
					resp.Body.Close()
					if status == http.StatusOK {
						break
					}
					fails.Add(1)
					time.Sleep(time.Millisecond)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return float64(total) / elapsed.Seconds(), fails.Load()
}

func TestEmitGatewayBench(t *testing.T) {
	if *emitBench == "" {
		t.Skip("pass -emit-bench=<path> (make gateway-bench) to measure fleet throughput")
	}
	store := testStore(t)
	names := make([]string, benchModels)
	digests := make([]string, benchModels)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
		digests[i] = publishReleased(t, store, int64(96+i), i%2 == 0)
	}

	rep := gwBenchReport{
		Threads: runtime.GOMAXPROCS(0),
		Notes: fmt.Sprintf(
			"one- or two-core host: points scale offered load with pool size against a "+
				"fixed per-replica capacity (max_inflight=%d, each predict held "+
				"%s by a test wrapper in front of the replica; the engine itself "+
				"has no flush timer and answers as soon as it is free), so "+
				"req/s growth reflects fleet routing, not CPU parallelism; "+
				"rolling_reload rolls one model to a new digest across the pool "+
				"under fire, failed counts client-visible non-200s (must be 0).",
			benchMaxInflight, benchHold),
	}

	// Scaling points: clients match aggregate capacity, so each pool size
	// runs at its own saturation throughput.
	for _, n := range []int{1, 2, 4} {
		_, greg, front := benchFleet(t, n, store, names, digests)
		clients := benchMaxInflight * n
		total := benchReqsPerRep * n
		rps, failed := hammer(t, front.URL, names, clients, total)
		rep.Points = append(rep.Points, gwBenchPoint{
			Replicas: n, Clients: clients, Requests: total, ReqPerSec: rps,
			Sheds:   greg.Counter("gateway_sheds_total").Value(),
			Retries: greg.Counter("gateway_retries_total").Value(),
		})
		t.Logf("replicas=%d clients=%d  %7.0f req/s  (%d shed)", n, clients, rps, failed)
	}
	for i := 1; i < len(rep.Points); i++ {
		prev, cur := rep.Points[i-1], rep.Points[i]
		if cur.ReqPerSec <= prev.ReqPerSec {
			t.Errorf("req/s not monotonic: %d replicas %.0f <= %d replicas %.0f",
				cur.Replicas, cur.ReqPerSec, prev.Replicas, prev.ReqPerSec)
		}
	}

	// Rolling reload under fire: a 4-replica pool at half load rolls m0
	// onto a new digest one replica at a time; every client request must
	// still answer 200.
	g, _, front := benchFleet(t, 4, store, names, digests)
	next := publishReleased(t, store, 200, true)
	const reloadClients, reloadTotal = 3, 600
	var failed atomic.Int64
	done := make(chan struct{})
	var rerr error
	go func() {
		defer close(done)
		// Let traffic establish before the roll starts.
		time.Sleep(50 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		rerr = g.RollingReload(ctx, names[0], next)
	}()
	_, fails := hammer(t, front.URL, names, reloadClients, reloadTotal)
	failed.Store(fails)
	<-done
	if rerr != nil {
		t.Errorf("rolling reload: %v", rerr)
	}
	if fails != 0 {
		t.Errorf("rolling reload dropped requests: %d client-visible non-200s", fails)
	}

	// The fleet must now serve the new digest consistently.
	status, body := getJSON(t, front.URL+"/v1/models")
	if status != http.StatusOK {
		t.Fatalf("post-reload /v1/models: %d", status)
	}
	var fleet []fleetModel
	if err := json.Unmarshal(body["models"], &fleet); err != nil {
		t.Fatal(err)
	}
	consistent := false
	for _, fm := range fleet {
		if fm.Name == names[0] {
			consistent = fm.Consistent && fm.Digest == next
		}
	}
	if !consistent {
		t.Errorf("fleet not consistent on %s after rolling reload: %+v", names[0], fleet)
	}
	rep.RollingReload = gwReloadReport{
		Replicas: 4, Clients: reloadClients, Requests: reloadTotal,
		Failed: fails, Consistent: consistent, Digest: next,
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

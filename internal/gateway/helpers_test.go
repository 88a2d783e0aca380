package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/artifact"
	"repro/internal/modelio"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/quantize"
	"repro/internal/serve"
	"repro/internal/tensor"
)

func testArch() nn.ResNetConfig {
	return nn.ResNetConfig{
		InC: 1, InH: 8, InW: 8, Classes: 4,
		Widths: []int{4, 8}, Blocks: []int{1, 1}, Seed: 77,
	}
}

// testModel builds a small ResNet with non-trivial weights and batch-norm
// running statistics, deterministically from seed.
func testModel(seed int64) *nn.Model {
	m := nn.NewResNet(testArch())
	rng := rand.New(rand.NewSource(seed))
	for _, p := range m.Params() {
		p.Value.RandN(rng, 0, 0.1)
	}
	m.ForwardTrain(tensor.New(8, 1, 8, 8).RandN(rng, 0, 1))
	return m
}

// writeReleased exports a test model (quantized when asked) to a released
// file under t.TempDir and returns its path.
func writeReleased(t testing.TB, seed int64, quantized bool) string {
	t.Helper()
	m := testModel(seed)
	var applied *quantize.Applied
	if quantized {
		applied = quantize.QuantizeModel(m, quantize.WeightedEntropy{}, 8)
	}
	rm, err := modelio.Export(m, testArch(), applied)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := modelio.Save(path, rm); err != nil {
		t.Fatal(err)
	}
	return path
}

// publishReleased exports a test model into the store and returns its
// digest.
func publishReleased(t testing.TB, store *artifact.Store, seed int64, quantized bool) string {
	t.Helper()
	digest, err := serve.PublishReleaseFile(store, writeReleased(t, seed, quantized))
	if err != nil {
		t.Fatal(err)
	}
	return digest
}

// testStore opens a fresh artifact store under t.TempDir.
func testStore(t testing.TB) *artifact.Store {
	t.Helper()
	store, err := artifact.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// testInputs generates n deterministic flattened inputs.
func testInputs(n, length int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		in := make([]float64, length)
		for j := range in {
			in[j] = rng.NormFloat64()
		}
		out[i] = in
	}
	return out
}

// testReplica is one in-process dacserve replica: a serve registry behind
// a real HTTP listener, marked ready like dacserve does after startup
// loads.
type testReplica struct {
	id  string
	reg *serve.Registry
	srv *serve.Server
	ts  *httptest.Server
}

// startReplica spins up an in-process replica wired to the store. Each
// replica gets its own obs registry so fleet tests never cross metric
// streams.
func startReplica(t testing.TB, id string, store *artifact.Store) *testReplica {
	t.Helper()
	reg := serve.NewRegistry(serve.Options{
		MaxBatch:   4,
		QueueDepth: 64,
		Threads:    1,
		Obs:        obs.NewRegistry(),
		Store:      store,
	})
	srv := serve.NewServer(reg, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	srv.SetReady()
	return &testReplica{id: id, reg: reg, srv: srv, ts: ts}
}

// testGateway builds a gateway over the given replicas with the
// background prober disabled (tests drive ProbeAll directly) and a fresh
// obs registry, and runs one initial probe pass.
func testGateway(t testing.TB, opts Options, replicas ...*testReplica) *Gateway {
	t.Helper()
	opts.ProbeInterval = -1
	if opts.RetryBackoff == 0 {
		opts.RetryBackoff = -1
	}
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	g := New(opts)
	t.Cleanup(g.Close)
	for _, r := range replicas {
		if _, err := g.AddReplica(r.id, r.ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	g.ProbeAll(context.Background())
	return g
}

// gatewayServer exposes g over httptest.
func gatewayServer(t testing.TB, g *Gateway) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewServer(g).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// jsonBody marshals v into a request body reader.
func jsonBody(t testing.TB, v any) *bytes.Reader {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(raw)
}

// predictBody builds a predict request body for one input.
func predictBody(t testing.TB, model string, input []float64) []byte {
	t.Helper()
	raw, err := json.Marshal(map[string]any{"model": model, "input": input})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// postPredict sends one predict request and decodes the JSON answer.
func postPredict(t testing.TB, url string, body []byte) (int, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode predict response: %v", err)
	}
	return resp.StatusCode, out
}

// getJSON fetches a URL and decodes the JSON answer.
func getJSON(t testing.TB, url string) (int, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s response: %v", url, err)
	}
	return resp.StatusCode, out
}

// referenceModel re-imports a released file on a serial context, the
// offline twin every routed prediction is compared against.
func referenceModel(t testing.TB, path string) *nn.Model {
	t.Helper()
	rm, err := modelio.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := modelio.Import(rm)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

package extract

import (
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/modelio"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// startVictim spins up a real serve server over one released test model
// and returns the registry (for policy toggles) and an attack client.
func startVictim(t *testing.T) (*serve.Registry, *Client) {
	t.Helper()
	m := nn.NewResNet(testArch())
	rng := rand.New(rand.NewSource(42))
	for _, p := range m.Params() {
		p.Value.RandN(rng, 0, 0.1)
	}
	m.ForwardTrain(tensor.New(8, 1, 8, 8).RandN(rng, 0, 1))
	rm, err := modelio.Export(m, testArch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "victim.bin")
	if err := modelio.Save(path, rm); err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(serve.Options{
		MaxBatch: 4, QueueDepth: 64,
		Threads: 1, Obs: obs.NewRegistry(),
	})
	if _, err := reg.LoadFile("victim", path); err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(reg, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	srv.SetReady()
	return reg, NewClient(ts.URL, "victim", "attacker-e2e")
}

// TestClientAgainstLiveServer drives the HTTP client end to end: shape
// reconnaissance, an undefended harvest (soft labels), then hot-swapped
// policies degrading the same attack to hard labels and finally refusing
// it outright.
func TestClientAgainstLiveServer(t *testing.T) {
	reg, client := startVictim(t)
	shape, err := client.Shape()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shape.InputShape, []int{1, 8, 8}) || shape.Classes != 4 {
		t.Fatalf("recon: shape=%v classes=%d", shape.InputShape, shape.Classes)
	}

	cfg := Config{
		Budget: 24, BatchSize: 8, Strategy: NewRandom(64),
		Seed: 9, Surrogate: testArch(),
	}
	h, err := HarvestQueries(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Soft || h.Mode != "" {
		t.Fatalf("undefended harvest: soft=%v mode=%q", h.Soft, h.Mode)
	}
	if client.Queries != 24 || client.Requests != 3 {
		t.Fatalf("client spend: queries=%d requests=%d", client.Queries, client.Requests)
	}

	// Top-1-only policy, no restart: the same attack now only learns
	// argmaxes.
	if err := reg.SetPolicy("victim", serve.Policy{Mode: serve.PolicyTop1}); err != nil {
		t.Fatal(err)
	}
	h, err = HarvestQueries(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Soft || h.Mode != "top1" {
		t.Fatalf("top1 harvest: soft=%v mode=%q", h.Soft, h.Mode)
	}

	// Query budget below the attacker's: the harvest stops at the denial
	// with only the answered prefix. A fresh client identity gets a fresh
	// ledger entry.
	if err := reg.SetPolicy("victim", serve.Policy{QueryBudget: 10}); err != nil {
		t.Fatal(err)
	}
	budgeted := NewClient(client.BaseURL, client.Model, "attacker-budgeted")
	h, err = HarvestQueries(budgeted, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Denied != 1 {
		t.Fatalf("denied = %d, want 1", h.Denied)
	}
	if len(h.Inputs) != 8 {
		t.Fatalf("harvested %d, want the 8 answered before the budget tripped", len(h.Inputs))
	}
}

// TestHarvestDeterministicOverHTTP pins that the full HTTP round trip
// preserves the determinism contract: two identically-seeded harvests
// against the same live victim are byte-equal.
func TestHarvestDeterministicOverHTTP(t *testing.T) {
	_, client := startVictim(t)
	cfg := Config{
		Budget: 16, BatchSize: 8, Strategy: NewRandom(64),
		Seed: 21, Surrogate: testArch(),
	}
	h1, err := HarvestQueries(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := HarvestQueries(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h1, h2) {
		t.Fatal("same seed produced different harvests over HTTP")
	}
}

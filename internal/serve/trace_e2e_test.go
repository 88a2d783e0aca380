package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/gateway"
	"repro/internal/obs"
)

// The acceptance path for fleet tracing, end to end over real HTTP: a
// predict through a dacgateway-shaped gateway into a dacserve-shaped
// replica yields one trace in BOTH processes' /tracez sharing the trace
// ID; the gateway's attempt span covers at least the replica's reported
// queue+compute time; and the traced prediction's logits are bit-identical
// to an offline forward pass. (Lives in the serve package: gateway's
// non-test code depends only on obs, so there is no import cycle.)
func TestEndToEndTraceAcrossGatewayAndReplica(t *testing.T) {
	path := writeReleased(t, 86, true)
	reg := NewRegistry(Options{
		MaxBatch:   4,
		QueueDepth: 64,
		Threads:    1,
		Obs:        obs.NewRegistry(),
	})
	defer reg.Close()
	if _, err := reg.LoadFile("prod", path); err != nil {
		t.Fatal(err)
	}
	api := NewServer(reg, nil)
	api.SetReady()
	replicaTS := httptest.NewServer(api.Handler())
	defer replicaTS.Close()

	g := gateway.New(gateway.Options{ProbeInterval: -1, RetryBackoff: -1, Obs: obs.NewRegistry()})
	defer g.Close()
	if _, err := g.AddReplica("r0", replicaTS.URL); err != nil {
		t.Fatal(err)
	}
	if n := g.ProbeAll(context.Background()); n != 1 {
		t.Fatal("replica not eligible after probe")
	}
	gw := gateway.NewServer(g)
	gwTS := httptest.NewServer(gw.Handler())
	defer gwTS.Close()

	ref := referenceModel(t, path)
	in := testInputs(1, ref.InputLen(), 87)[0]
	raw, err := json.Marshal(predictRequest{Model: "prod", Input: in})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, gwTS.URL+"/v1/predict", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.HeaderClient, "e2e-client")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %s", resp.StatusCode, body)
	}
	traceID := resp.Header.Get(obs.HeaderTrace)
	if traceID == "" {
		t.Fatal("response missing trace header")
	}

	// Same trace ID in both tiers' /tracez, with the hop label marking the
	// replica-side record as the gateway's first attempt.
	gwSnap := gw.Traces().Snapshot()
	repSnap := api.Traces().Snapshot()
	if gwSnap.Total != 1 || len(gwSnap.Recent) != 1 {
		t.Fatalf("gateway tracez = %+v", gwSnap)
	}
	if repSnap.Total != 1 || len(repSnap.Recent) != 1 {
		t.Fatalf("replica tracez = %+v", repSnap)
	}
	gwRec, repRec := gwSnap.Recent[0], repSnap.Recent[0]
	if gwRec.TraceID != traceID || repRec.TraceID != traceID {
		t.Fatalf("trace IDs diverge: gateway %s, replica %s, response %s", gwRec.TraceID, repRec.TraceID, traceID)
	}
	if repRec.Hop != "a0" {
		t.Fatalf("replica hop = %q, want a0", repRec.Hop)
	}
	if gwRec.Client != "e2e-client" || repRec.Client != "e2e-client" {
		t.Fatalf("client identity lost: gateway %q, replica %q", gwRec.Client, repRec.Client)
	}

	// The gateway's attempt covers the whole replica round trip, so it
	// cannot be shorter than the replica's own queue+compute report — which
	// both tiers must agree on (the gateway parsed it from the replica's
	// X-Dac-Server-Timing).
	var a0 obs.SpanRecord
	found := false
	for _, sp := range gwRec.Spans {
		if sp.Name == "attempt0" {
			a0, found = sp, true
		}
	}
	if !found {
		t.Fatalf("gateway trace missing attempt0 span: %+v", gwRec.Spans)
	}
	if gwRec.QueueMicros != repRec.QueueMicros || gwRec.ComputeMicros != repRec.ComputeMicros {
		t.Fatalf("tiers disagree on breakdown: gateway %d/%d, replica %d/%d",
			gwRec.QueueMicros, gwRec.ComputeMicros, repRec.QueueMicros, repRec.ComputeMicros)
	}
	if a0.DurMicros < repRec.QueueMicros+repRec.ComputeMicros {
		t.Fatalf("attempt0 (%dµs) shorter than replica queue+compute (%d+%dµs)",
			a0.DurMicros, repRec.QueueMicros, repRec.ComputeMicros)
	}
	if gwRec.DurMicros < a0.DurMicros {
		t.Fatalf("gateway total (%dµs) shorter than its attempt (%dµs)", gwRec.DurMicros, a0.DurMicros)
	}

	// Tracing must not perturb the numbers: the routed, traced prediction
	// is bit-identical to an offline serial forward pass.
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Predictions) != 1 {
		t.Fatalf("got %d predictions", len(pr.Predictions))
	}
	wantBatch, err := ref.EvalBatch([][]float64{in})
	if err != nil {
		t.Fatal(err)
	}
	want := wantBatch[0]
	got := pr.Predictions[0].Logits
	if len(got) != len(want) {
		t.Fatalf("logit length %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d differs under tracing: %v vs %v", i, got[i], want[i])
		}
	}
}

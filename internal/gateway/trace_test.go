package gateway

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/obs"
)

// fakeReplica is a scripted replica for propagation tests: always healthy,
// answers /v1/predict through the shared script so the test controls which
// attempt fails, and records every predict's trace/client headers.
type fakeReplica struct {
	ts *httptest.Server
}

// attemptLog records the headers each proxied attempt arrived with, across
// all fake replicas, in arrival order.
type attemptLog struct {
	mu      sync.Mutex
	traces  []string
	clients []string
	n       int
}

// startFakeReplica builds a replica whose predict answer comes from
// script(n) for the n-th predict across the pool (shared log).
func startFakeReplica(t *testing.T, log *attemptLog, script func(n int, w http.ResponseWriter)) *fakeReplica {
	t.Helper()
	mux := http.NewServeMux()
	ok := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok"}`))
	}
	mux.HandleFunc("GET /healthz", ok)
	mux.HandleFunc("GET /readyz", ok)
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		log.mu.Lock()
		log.traces = append(log.traces, r.Header.Get(obs.HeaderTrace))
		log.clients = append(log.clients, r.Header.Get(obs.HeaderClient))
		n := log.n
		log.n++
		log.mu.Unlock()
		script(n, w)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &fakeReplica{ts: ts}
}

func spanByName(spans []obs.SpanRecord, name string) (obs.SpanRecord, bool) {
	for _, sp := range spans {
		if sp.Name == name {
			return sp, true
		}
	}
	return obs.SpanRecord{}, false
}

// One trace ID must survive a gateway retry: the failed first attempt and
// the successful second both carry it (with distinct hop labels a0/a1), the
// retried replica's X-Dac-Server-Timing lands on the attempt1 spans, and
// the gateway's /tracez holds a single record for the request.
func TestTracePropagationAcrossRetry(t *testing.T) {
	log := &attemptLog{}
	script := func(n int, w http.ResponseWriter) {
		if n == 0 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(obs.HeaderServerTiming, "queue=111,compute=222,batch=3,total=333")
		w.Write([]byte(`{"answer":42}`))
	}
	r0 := startFakeReplica(t, log, script)
	r1 := startFakeReplica(t, log, script)

	g := New(Options{ProbeInterval: -1, RetryBackoff: -1, Obs: obs.NewRegistry()})
	t.Cleanup(g.Close)
	for id, fr := range map[string]*fakeReplica{"r0": r0, "r1": r1} {
		if _, err := g.AddReplica(id, fr.ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	if n := g.ProbeAll(context.Background()); n != 2 {
		t.Fatalf("eligible = %d, want 2", n)
	}
	srv := NewServer(g)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	const traceID = "0f0e0d0c0b0a09080706050403020100"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", jsonBody(t, map[string]any{"model": "prod", "input": []float64{1}}))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.HeaderTrace, traceID)
	req.Header.Set(obs.HeaderClient, "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(obs.HeaderTrace); got != traceID {
		t.Fatalf("response trace header = %q, want %q", got, traceID)
	}
	if got := resp.Header.Get(obs.HeaderServerTiming); got != "queue=111,compute=222,batch=3,total=333" {
		t.Fatalf("relayed timing header = %q", got)
	}

	// Both attempts carried the same trace ID with distinct hop labels, and
	// the client identity was forwarded to each replica.
	log.mu.Lock()
	traces, clients := append([]string(nil), log.traces...), append([]string(nil), log.clients...)
	log.mu.Unlock()
	if len(traces) != 2 {
		t.Fatalf("replica saw %d attempts, want 2 (%v)", len(traces), traces)
	}
	if traces[0] != traceID+";hop=a0" || traces[1] != traceID+";hop=a1" {
		t.Fatalf("attempt trace headers = %v", traces)
	}
	if clients[0] != "alice" || clients[1] != "alice" {
		t.Fatalf("attempt client headers = %v", clients)
	}

	// One gateway trace: retried, with attempt spans for both tries and the
	// retried replica's breakdown attributed to attempt1.
	snap := srv.Traces().Snapshot()
	if snap.Total != 1 || len(snap.Recent) != 1 {
		t.Fatalf("tracez = %+v", snap)
	}
	rec := snap.Recent[0]
	if rec.TraceID != traceID || !rec.Retried || rec.Model != "prod" || rec.Client != "alice" {
		t.Fatalf("record = %+v", rec)
	}
	if rec.QueueMicros != 111 || rec.ComputeMicros != 222 || rec.Batch != 3 {
		t.Fatalf("record breakdown = %+v", rec)
	}
	for _, name := range []string{"decode", "route", "attempt0", "attempt1"} {
		if _, ok := spanByName(rec.Spans, name); !ok {
			t.Fatalf("span %q missing: %+v", name, rec.Spans)
		}
	}
	a0, _ := spanByName(rec.Spans, "attempt0")
	a1, _ := spanByName(rec.Spans, "attempt1")
	if a0.Detail == "" || a1.Detail == "" || a0.Detail == a1.Detail {
		t.Fatalf("attempt spans should name distinct replicas: %+v %+v", a0, a1)
	}
	if _, ok := spanByName(rec.Spans, "attempt0/queue"); ok {
		t.Fatalf("failed attempt got a queue span: %+v", rec.Spans)
	}
	q1, ok := spanByName(rec.Spans, "attempt1/queue")
	if !ok || q1.DurMicros != 111 {
		t.Fatalf("attempt1/queue = %+v (ok=%v)", q1, ok)
	}
	c1, ok := spanByName(rec.Spans, "attempt1/compute")
	if !ok || c1.DurMicros != 222 || c1.StartMicros != q1.StartMicros+111 {
		t.Fatalf("attempt1/compute = %+v (queue %+v)", c1, q1)
	}

	// Per-client accounting followed the request.
	counters := g.opts.Obs.Snapshot().Counters
	if got := counters[`gateway_client_requests_total{client="alice"}`]; got != 1 {
		t.Fatalf("client counter = %d (%v)", got, counters)
	}
}

// A gateway-synthesized predict failure (no ready replica) still mints a
// trace: the error body carries the trace ID and the record lands in the
// error ring.
func TestGatewayErrorBodyCarriesTraceID(t *testing.T) {
	g := New(Options{ProbeInterval: -1, RetryBackoff: -1, Obs: obs.NewRegistry()})
	t.Cleanup(g.Close)
	srv := NewServer(g)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
		jsonBody(t, map[string]any{"model": "prod", "input": []float64{1}}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	hdr := resp.Header.Get(obs.HeaderTrace)
	if out["trace_id"] == "" || out["trace_id"] != hdr {
		t.Fatalf("trace_id body %q vs header %q", out["trace_id"], hdr)
	}
	snap := srv.Traces().Snapshot()
	if snap.Total != 1 || len(snap.Errors) != 1 || snap.Errors[0].TraceID != hdr {
		t.Fatalf("tracez after error = %+v", snap)
	}
}

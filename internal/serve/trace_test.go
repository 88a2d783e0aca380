package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// traceClock returns a clock that advances step per read, starting at
// base. Every clock read in a single-request predict happens in one
// deterministic order (trace start, decode span, submit, flush, eval,
// finish), which is what pins the /tracez golden.
func traceClock(base time.Time, step time.Duration) func() time.Time {
	var mu sync.Mutex
	cur := base
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		cur = cur.Add(step)
		return cur
	}
}

// tracePredict drives one traced predict through the full HTTP handler.
func tracePredict(api *Server, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	api.Handler().ServeHTTP(rec, req)
	return rec
}

// The /tracez JSON shape is API: the golden pins every record and span
// field with an injected fake clock shared by the HTTP layer and the
// engine, so queue/compute/span numbers are exact (same pattern as the
// /statsz golden).
func TestTracezGoldenWithFakeClock(t *testing.T) {
	path := writeReleased(t, 80, false)
	opts := testOpts(4, 16)
	opts.Obs = obs.NewRegistry()
	r := NewRegistry(opts)
	defer r.Close()
	en, err := r.LoadFile("demo", path)
	if err != nil {
		t.Fatal(err)
	}
	api := NewServer(r, nil)

	// One clock shared by server and engine: reads land in a fixed order —
	// (1) trace start, (2,3) decode span, (4) predict span start, (5)
	// submit enqueue, (6) flush start, (7,8) eval start/end, (9) predict
	// span end, (10) finish. Empty flushes read no clock, so the engine's
	// final empty drain does not perturb the sequence.
	clock := traceClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC), time.Millisecond)
	api.front.Now = clock
	en.engine.now = clock

	body, err := json.Marshal(predictRequest{Model: "demo", Input: testInputs(1, en.Model().InputLen(), 81)[0]})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
	req.Header.Set(obs.HeaderTrace, "000102030405060708090a0b0c0d0e0f")
	req.Header.Set(obs.HeaderClient, "tester")
	rec := tracePredict(api, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(obs.HeaderTrace); got != "000102030405060708090a0b0c0d0e0f" {
		t.Fatalf("response trace header = %q", got)
	}
	if got := rec.Header().Get(obs.HeaderServerTiming); got != "queue=1000,compute=1000,batch=1,total=5000" {
		t.Fatalf("server timing header = %q", got)
	}

	trec := httptest.NewRecorder()
	api.Handler().ServeHTTP(trec, httptest.NewRequest(http.MethodGet, "/tracez", nil))
	if trec.Code != http.StatusOK {
		t.Fatalf("tracez status %d", trec.Code)
	}
	record := fmt.Sprintf(`{"trace_id":"000102030405060708090a0b0c0d0e0f","client":"tester","model":"demo","digest":"%s","status":200,"batch":1,"queue_us":1000,"compute_us":1000,"start":"2026-01-01T00:00:00.001Z","dur_us":9000,"spans":[{"name":"decode","start_us":1000,"dur_us":1000},{"name":"predict","start_us":3000,"dur_us":5000},{"name":"predict/queue","start_us":3000,"dur_us":1000},{"name":"predict/compute","start_us":4000,"dur_us":1000}]}`,
		en.Digest)
	want := fmt.Sprintf(`{"total":1,"recent":[%s],"slowest":[%s],"errors":[]}`, record, record)
	if got := strings.TrimSpace(trec.Body.String()); got != want {
		t.Fatalf("tracez shape changed:\ngot:  %s\nwant: %s", got, want)
	}
}

// Predict error bodies carry the trace ID (matching the X-Dac-Trace
// response header), so a failed client call is correlatable with /tracez.
func TestPredictErrorBodyCarriesTraceID(t *testing.T) {
	opts := testOpts(4, 16)
	opts.Obs = obs.NewRegistry()
	r := NewRegistry(opts)
	defer r.Close()
	api := NewServer(r, nil)

	body := []byte(`{"model":"ghost","input":[1]}`)
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	api.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
	var out map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out["error"] == "" {
		t.Fatal("error body missing error message")
	}
	hdr := rec.Header().Get(obs.HeaderTrace)
	if out["trace_id"] == "" || out["trace_id"] != hdr {
		t.Fatalf("trace_id body %q vs header %q", out["trace_id"], hdr)
	}
	// The failure landed in the error ring too.
	snap := api.Traces().Snapshot()
	if snap.Total != 1 || len(snap.Errors) != 1 || snap.Errors[0].TraceID != hdr {
		t.Fatalf("tracez after error: %+v", snap)
	}
	if snap.Errors[0].Status != http.StatusNotFound || snap.Errors[0].Error == "" {
		t.Fatalf("error record = %+v", snap.Errors[0])
	}
}

// EnableTracing(false) drops trace construction — no records, no timing
// headers — while predictions and per-client accounting still flow.
func TestTracingDisabledNoOps(t *testing.T) {
	path := writeReleased(t, 82, false)
	oreg := obs.NewRegistry()
	opts := testOpts(4, 16)
	opts.Obs = oreg
	r := NewRegistry(opts)
	defer r.Close()
	en, err := r.LoadFile("demo", path)
	if err != nil {
		t.Fatal(err)
	}
	api := NewServer(r, nil)
	api.EnableTracing(false)

	body, err := json.Marshal(predictRequest{Model: "demo", Input: testInputs(1, en.Model().InputLen(), 83)[0]})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
	req.Header.Set(obs.HeaderClient, "alice")
	rec := tracePredict(api, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict status %d: %s", rec.Code, rec.Body.String())
	}
	if h := rec.Header().Get(obs.HeaderTrace); h != "" {
		t.Fatalf("trace header present with tracing off: %q", h)
	}
	if h := rec.Header().Get(obs.HeaderServerTiming); h != "" {
		t.Fatalf("timing header present with tracing off: %q", h)
	}
	if snap := api.Traces().Snapshot(); snap.Total != 0 {
		t.Fatalf("trace recorded with tracing off: %+v", snap)
	}
	if got := oreg.Snapshot().Counters[`serve_client_requests_total{client="alice"}`]; got != 1 {
		t.Fatalf("client accounting = %d, want 1 (accounting must survive tracing off)", got)
	}
}

// The access log gets one flat JSON line per request (no spans), with the
// same trace ID /tracez holds.
func TestAccessLogLineShape(t *testing.T) {
	path := writeReleased(t, 84, false)
	opts := testOpts(4, 16)
	opts.Obs = obs.NewRegistry()
	r := NewRegistry(opts)
	defer r.Close()
	en, err := r.LoadFile("demo", path)
	if err != nil {
		t.Fatal(err)
	}
	api := NewServer(r, nil)
	var buf bytes.Buffer
	api.SetAccessLog(&buf)

	body, err := json.Marshal(predictRequest{Model: "demo", Input: testInputs(1, en.Model().InputLen(), 85)[0]})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
	req.Header.Set(obs.HeaderClient, "alice")
	if rec := tracePredict(api, req); rec.Code != http.StatusOK {
		t.Fatalf("predict status %d: %s", rec.Code, rec.Body.String())
	}

	line := strings.TrimSpace(buf.String())
	if strings.Count(line, "\n") != 0 {
		t.Fatalf("want exactly one log line, got %q", buf.String())
	}
	var rec obs.TraceRecord
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("access line is not JSON: %v (%q)", err, line)
	}
	if rec.Client != "alice" || rec.Model != "demo" || rec.Digest != en.Digest || rec.Status != 200 || rec.Batch != 1 {
		t.Fatalf("access line = %+v", rec)
	}
	if rec.Spans != nil {
		t.Fatalf("access line carries spans: %+v", rec.Spans)
	}
	snap := api.Traces().Snapshot()
	if len(snap.Recent) != 1 || snap.Recent[0].TraceID != rec.TraceID {
		t.Fatalf("access line trace %q not in /tracez (%+v)", rec.TraceID, snap.Recent)
	}
}

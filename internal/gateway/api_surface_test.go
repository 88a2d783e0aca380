package gateway

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/obs"
)

// TestRouteInventoryGolden pins the gateway's whole HTTP surface, the
// mirror of the serve package's golden. A route added or removed without
// updating this list (and the README API table) is an unreviewed API
// change.
func TestRouteInventoryGolden(t *testing.T) {
	g := testGateway(t, Options{})
	srv := NewServer(g)
	want := []string{
		"POST /v1/predict",
		"GET /v1/models",
		"GET /v1/assignments",
		"POST /v1/models/{nameop}",
		"GET /healthz",
		"GET /readyz",
		"GET /statsz",
		"GET /tracez",
		"GET /metricsz",
	}
	if got := srv.Routes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("route inventory changed:\n got %q\nwant %q", got, want)
	}

	// Walk the inventory against a live server: every declared pattern must
	// be backed by a real handler, never the mux's text 404/405 page.
	ts := gatewayServer(t, g)
	for _, route := range want {
		method, path, _ := strings.Cut(route, " ")
		path = strings.ReplaceAll(path, "{nameop}", "ghost:policy")
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusMethodNotAllowed || string(body) == "404 page not found\n" {
			t.Errorf("%s: answered by the mux, not a handler (status %d)", route, resp.StatusCode)
		}
	}
}

// TestErrorEnvelopeGolden pins the exact envelope bytes for the gateway's
// untraced errors — the same shape the serve and api package goldens pin.
func TestErrorEnvelopeGolden(t *testing.T) {
	ts := gatewayServer(t, testGateway(t, Options{}))

	resp, err := http.Post(ts.URL+"/v1/models/ghost:frobnicate", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := `{"error":"unknown model operation \"ghost:frobnicate\" (want {name}:policy or {name}:reload)","code":"not_found"}` + "\n"
	if resp.StatusCode != http.StatusNotFound || string(raw) != want {
		t.Fatalf("unknown-op envelope drifted (status %d):\n got %s\nwant %s", resp.StatusCode, raw, want)
	}
}

// A predict body one byte over api.MaxBodyBytes answers the 400
// bad_request envelope with its trace_id, before anything is proxied.
func TestOversizePredictBodyRejected(t *testing.T) {
	srv := NewServer(testGateway(t, Options{}))
	pad := api.MaxBodyBytes + 1 - len(`{"model":""}`)
	body := `{"model":"` + strings.Repeat("a", pad) + `"}`
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)))
	e, err := api.ParseError(rec.Body.Bytes())
	if rec.Code != http.StatusBadRequest || err != nil || e.Code != api.CodeBadRequest || !strings.Contains(e.Message, "too large") {
		t.Fatalf("status %d envelope %+v (%v), want 400 %s on the body limit", rec.Code, e, err, api.CodeBadRequest)
	}
	if e.TraceID == "" || e.TraceID != rec.Header().Get(obs.HeaderTrace) {
		t.Fatalf("trace_id %q vs header %q", e.TraceID, rec.Header().Get(obs.HeaderTrace))
	}
}

// Every gateway /v1 body is bounded at api.MaxBodyBytes, not only
// predict's: the reload and policy bodies one byte over answer the same
// 400 bad_request envelope instead of being buffered.
func TestOversizeAdminBodiesRejected(t *testing.T) {
	srv := NewServer(testGateway(t, Options{}))
	// One valid JSON object spanning the whole body, so a decode can only
	// fail on the limit.
	pad := api.MaxBodyBytes + 1 - len(`{"model":""}`)
	body := `{"model":"` + strings.Repeat("a", pad) + `"}`
	for _, path := range []string{"/v1/models/prod:reload", "/v1/models/prod:policy"} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		e, err := api.ParseError(rec.Body.Bytes())
		if rec.Code != http.StatusBadRequest || err != nil || e.Code != api.CodeBadRequest || !strings.Contains(e.Message, "too large") {
			t.Errorf("%s: status %d envelope %+v (%v), want 400 %s on the body limit", path, rec.Code, e, err, api.CodeBadRequest)
		}
	}
}

// TestErrorEnvelopeCarriesTraceID pins the traced variant on the gateway
// side: a failed predict answers the envelope with its trace_id matching
// the X-Dac-Trace header.
func TestErrorEnvelopeCarriesTraceID(t *testing.T) {
	ts := gatewayServer(t, testGateway(t, Options{})) // no replicas: predict must 503

	resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
		strings.NewReader(`{"model":"prod","input":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", resp.StatusCode, raw)
	}
	e, err := api.ParseError(raw)
	if err != nil {
		t.Fatalf("not an envelope: %v (%s)", err, raw)
	}
	if e.Code != api.CodeUnavailable {
		t.Fatalf("code = %q, want %q", e.Code, api.CodeUnavailable)
	}
	if e.TraceID == "" || e.TraceID != resp.Header.Get(obs.HeaderTrace) {
		t.Fatalf("trace_id %q does not match %s header %q", e.TraceID, obs.HeaderTrace, resp.Header.Get(obs.HeaderTrace))
	}
}

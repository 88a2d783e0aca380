package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/obs"
)

// TestRouteInventoryGolden pins the replica's whole HTTP surface. A route
// added or removed without updating this list (and the README API table)
// is an unreviewed API change.
func TestRouteInventoryGolden(t *testing.T) {
	reg := NewRegistry(testOpts(4, 16))
	defer reg.Close()
	srv := NewServer(reg, nil)
	want := []string{
		"POST /v1/predict",
		"GET /v1/models",
		"POST /v1/models/{nameop}",
		"GET /healthz",
		"GET /readyz",
		"GET /statsz",
		"GET /tracez",
		"GET /detectz",
		"GET /metricsz",
	}
	if got := srv.Routes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("route inventory changed:\n got %q\nwant %q", got, want)
	}

	// Walk the inventory against a live server: every declared pattern must
	// be backed by a real handler, never the mux's text 404/405 page.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, route := range want {
		method, path, _ := strings.Cut(route, " ")
		path = strings.ReplaceAll(path, "{nameop}", "ghost:audit")
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

// TestErrorEnvelopeGolden pins the exact bytes of the unified error
// envelope as served end-to-end — the same shape internal/api's golden
// pins at the type level, and the gateway's golden pins on its side.
func TestErrorEnvelopeGolden(t *testing.T) {
	reg := NewRegistry(testOpts(4, 16))
	defer reg.Close()
	srv := NewServer(reg, nil)
	srv.EnableTracing(false) // untraced errors omit trace_id: bytes are stable
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name, path, body string
		status           int
		want             string
	}{
		{
			name: "unknown model", path: "/v1/predict",
			body:   `{"model":"ghost","input":[0]}`,
			status: http.StatusNotFound,
			want:   `{"error":"unknown model \"ghost\"","code":"not_found"}` + "\n",
		},
		{
			name: "unsupported api version", path: "/v1/predict",
			body:   `{"api":"v2","model":"ghost","input":[0]}`,
			status: http.StatusBadRequest,
			want:   `{"error":"unsupported api version \"v2\" (this server speaks \"v1\")","code":"unsupported_api"}` + "\n",
		},
		{
			name: "unknown model op", path: "/v1/models/ghost:frobnicate",
			body:   "",
			status: http.StatusNotFound,
			want:   `{"error":"unknown model operation \"ghost:frobnicate\" (want {name}:audit or {name}:load or {name}:policy)","code":"not_found"}` + "\n",
		},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if string(raw) != tc.want {
			t.Errorf("%s: envelope drifted:\n got %s\nwant %s", tc.name, raw, tc.want)
		}
	}
}

// Every replica /v1 body is bounded at api.MaxBodyBytes, as on the
// gateway: one byte over answers the 400 bad_request envelope (with
// trace_id on predict) instead of being buffered.
func TestOversizeBodyRejected(t *testing.T) {
	reg := NewRegistry(testOpts(4, 16))
	defer reg.Close()
	if _, err := reg.LoadFile("demo", writeReleased(t, 70, false)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, nil)
	// One valid JSON object spanning the whole body, so a decode can only
	// fail on the limit.
	pad := api.MaxBodyBytes + 1 - len(`{"model":""}`)
	body := []byte(`{"model":"` + strings.Repeat("a", pad) + `"}`)
	for _, path := range []string{"/v1/predict", "/v1/models/demo:audit", "/v1/models/demo:load", "/v1/models/demo:policy"} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		e, err := api.ParseError(rec.Body.Bytes())
		if rec.Code != http.StatusBadRequest || err != nil || e.Code != api.CodeBadRequest || !strings.Contains(e.Message, "too large") {
			t.Errorf("%s: status %d envelope %+v (%v), want 400 %s on the body limit", path, rec.Code, e, err, api.CodeBadRequest)
			continue
		}
		if traced := path == "/v1/predict"; traced != (e.TraceID != "") {
			t.Errorf("%s: trace_id %q", path, e.TraceID)
		}
	}
}

// TestErrorEnvelopeCarriesTraceID pins the traced variant: the envelope's
// trace_id matches the X-Dac-Trace response header, so a client can quote
// it against /tracez.
func TestErrorEnvelopeCarriesTraceID(t *testing.T) {
	reg := NewRegistry(testOpts(4, 16))
	defer reg.Close()
	ts := httptest.NewServer(NewServer(reg, nil).Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
		bytes.NewReader([]byte(`{"model":"ghost","input":[0]}`)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	e, err := api.ParseError(raw)
	if err != nil {
		t.Fatalf("not an envelope: %v (%s)", err, raw)
	}
	if e.Code != api.CodeNotFound {
		t.Fatalf("code = %q, want %q", e.Code, api.CodeNotFound)
	}
	if e.TraceID == "" || e.TraceID != resp.Header.Get(obs.HeaderTrace) {
		t.Fatalf("trace_id %q does not match %s header %q", e.TraceID, obs.HeaderTrace, resp.Header.Get(obs.HeaderTrace))
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
)

// FuzzPredict sends arbitrary bytes as a /v1/predict body: the handler
// must never panic, must answer 200, 400, 404 or 429, and must answer in
// the /v1 schema — a 200 carries one prediction per sample, anything else
// the error envelope with a trace ID.
func FuzzPredict(f *testing.F) {
	reg := NewRegistry(Options{MaxBatch: 4, QueueDepth: 8, Threads: 1})
	f.Cleanup(reg.Close)
	en, err := reg.LoadFile("demo", writeReleased(f, 60, false))
	if err != nil {
		f.Fatal(err)
	}
	h := NewServer(reg, nil).Handler()
	u := en.Model().InputLen()
	inputs := testInputs(9, u, 61)
	for _, body := range []any{
		predictRequest{Model: "demo", Input: inputs[0]},
		predictRequest{Model: "demo", Inputs: inputs[:5]},
		predictRequest{Model: "demo", Inputs: inputs},
		predictRequest{Model: "nope", Input: make([]float64, u)},
		predictRequest{Model: "demo"},
		predictRequest{Model: "demo", Input: make([]float64, u), Inputs: [][]float64{make([]float64, u)}},
		predictRequest{Model: "demo", Input: make([]float64, u-1)},
		predictRequest{Model: "demo", Inputs: [][]float64{}},
	} {
		raw, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte("{not json"))
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK:
			var req predictRequest
			var resp predictResponse
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("200 for a body the server cannot have decoded: %v", err)
			}
			want := len(req.Inputs)
			if req.Input != nil {
				want = 1
			}
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || len(resp.Predictions) != want {
				t.Fatalf("200 body %q: %v, want %d predictions", w.Body.Bytes(), err, want)
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusTooManyRequests:
			e, err := api.ParseError(w.Body.Bytes())
			if err != nil || e.TraceID == "" {
				t.Fatalf("status %d body %q: %v, want an error envelope with a trace ID", w.Code, w.Body.Bytes(), err)
			}
		default:
			t.Fatalf("status %d for body %q", w.Code, body)
		}
	})
}

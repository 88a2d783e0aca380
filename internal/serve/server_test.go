package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/modelio"
)

// httpServer wires a registry behind httptest; correctness never depends
// on when flushes land.
func httpServer(t *testing.T, opts Options) (*Registry, *httptest.Server) {
	t.Helper()
	r := NewRegistry(opts)
	ts := httptest.NewServer(NewServer(r, core.CIFARRelease().GroupBounds).Handler())
	t.Cleanup(func() {
		ts.Close()
		r.Close()
	})
	return r, ts
}

func postJSON(t *testing.T, url string, body any) (int, map[string]json.RawMessage) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
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

func getJSON(t *testing.T, url string) (int, map[string]json.RawMessage) {
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

func TestHTTPPredictSingleAndBatch(t *testing.T) {
	path := writeReleased(t, 60, true)
	opts := Options{MaxBatch: 4, QueueDepth: 64, Threads: 2}
	r, ts := httpServer(t, opts)
	if _, err := r.LoadFile("demo", path); err != nil {
		t.Fatal(err)
	}
	ref := referenceModel(t, path)
	inputs := testInputs(5, ref.InputLen(), 61)
	want, err := ref.EvalBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}

	// Single.
	status, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "demo", Input: inputs[0]})
	if status != http.StatusOK {
		t.Fatalf("single predict status %d: %s", status, body["error"])
	}
	var preds []Prediction
	if err := json.Unmarshal(body["predictions"], &preds); err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 {
		t.Fatalf("got %d predictions, want 1", len(preds))
	}
	for j, v := range preds[0].Logits {
		if v != want[0][j] {
			t.Fatalf("logit %d: served %v != offline %v", j, v, want[0][j])
		}
	}

	// Batch.
	status, body = postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "demo", Inputs: inputs})
	if status != http.StatusOK {
		t.Fatalf("batch predict status %d: %s", status, body["error"])
	}
	if err := json.Unmarshal(body["predictions"], &preds); err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(inputs) {
		t.Fatalf("got %d predictions, want %d", len(preds), len(inputs))
	}
	for i := range preds {
		for j, v := range preds[i].Logits {
			if v != want[i][j] {
				t.Fatalf("sample %d logit %d: served %v != offline %v", i, j, v, want[i][j])
			}
		}
	}
}

func TestHTTPPredictErrors(t *testing.T) {
	path := writeReleased(t, 62, false)
	opts := Options{MaxBatch: 4, QueueDepth: 64, Threads: 1}
	r, ts := httpServer(t, opts)
	en, err := r.LoadFile("demo", path)
	if err != nil {
		t.Fatal(err)
	}
	u := en.Model().InputLen()

	for _, tc := range []struct {
		name   string
		body   any
		status int
	}{
		{"unknown model", predictRequest{Model: "nope", Input: make([]float64, u)}, http.StatusNotFound},
		{"no input", predictRequest{Model: "demo"}, http.StatusBadRequest},
		{"both inputs", predictRequest{Model: "demo", Input: make([]float64, u), Inputs: [][]float64{make([]float64, u)}}, http.StatusBadRequest},
		{"bad length", predictRequest{Model: "demo", Input: make([]float64, u-1)}, http.StatusBadRequest},
		{"empty batch", predictRequest{Model: "demo", Inputs: [][]float64{}}, http.StatusBadRequest},
	} {
		if status, body := postJSON(t, ts.URL+"/v1/predict", tc.body); status != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, status, tc.status, body["error"])
		}
	}

	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}
}

// A stalled engine with a full queue must surface as 429 over HTTP.
func TestHTTPPredictBackpressure429(t *testing.T) {
	path := writeReleased(t, 63, false)
	r, ts := httpServer(t, testOpts(2, 2))
	en, err := r.LoadFile("demo", path)
	if err != nil {
		t.Fatal(err)
	}
	u := en.Model().InputLen()

	stalled, release := stallFirstFlush(en.engine)
	// The first submission starts a flush, which stalls in the hook. It
	// must land before the queue-fillers: submitted together, the scheduler
	// can let the fillers win the queue slots and bounce the rest with
	// ErrQueueFull before the engine ever stalls, and the queue then never
	// refills to 2.
	wg := submitAsync(t, en.engine, testInputs(1, u, 64))
	<-stalled
	// The engine goroutine is stalled, so these fill the drained queue.
	queued := submitAsync(t, en.engine, testInputs(2, u, 66))
	waitQueueLen(en.engine, 2)

	status, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "demo", Input: make([]float64, u)})
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", status, body["error"])
	}
	release()
	wg.Wait()
	queued.Wait()
}

// reply is one predict's answer as a client saw it.
type reply struct {
	status int
	body   []byte
}

// predictAsync posts body to url's /v1/predict on its own goroutine and
// delivers the answer (status -1 on a transport error). It never touches
// t, so tests may call it from any goroutine.
func predictAsync(url string, body predictRequest) <-chan reply {
	out := make(chan reply, 1)
	go func() {
		raw, _ := json.Marshal(body)
		resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(raw))
		if err != nil {
			out <- reply{status: -1, body: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		out <- reply{status: resp.StatusCode, body: b}
	}()
	return out
}

// Admission is whole: a request with more samples than the queue has free
// slots gets 429 at once, and none of its samples is queued or accepted.
func TestHTTPPredictAdmitsWholeRequest(t *testing.T) {
	path := writeReleased(t, 69, false)
	r, ts := httpServer(t, testOpts(4, 4))
	en, err := r.LoadFile("demo", path)
	if err != nil {
		t.Fatal(err)
	}
	u := en.Model().InputLen()
	stalled, release := stallFirstFlush(en.engine)
	var once sync.Once
	defer once.Do(release)

	first := predictAsync(ts.URL, predictRequest{Model: "demo", Input: testInputs(1, u, 70)[0]})
	<-stalled
	queued := predictAsync(ts.URL, predictRequest{Model: "demo", Inputs: testInputs(2, u, 71)})
	waitQueueLen(en.engine, 2)
	before := en.Stats()

	select {
	case rep := <-predictAsync(ts.URL, predictRequest{Model: "demo", Inputs: testInputs(3, u, 72)}):
		if rep.status != http.StatusTooManyRequests {
			t.Fatalf("3 samples into 2 free slots: status %d, want 429 (%s)", rep.status, rep.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("3 samples into 2 free slots: not answered while the engine is stalled")
	}
	after := en.Stats()
	if after.Accepted != before.Accepted || after.Rejected != before.Rejected+3 || en.engine.QueueLen() != 2 {
		t.Fatalf("accepted %d -> %d, rejected %d -> %d, queue %d; want accepted unchanged, rejected +3, queue 2",
			before.Accepted, after.Accepted, before.Rejected, after.Rejected, en.engine.QueueLen())
	}
	once.Do(release)
	for _, c := range []<-chan reply{first, queued} {
		if rep := <-c; rep.status != http.StatusOK {
			t.Fatalf("admitted request: status %d (%s)", rep.status, rep.body)
		}
	}
}

// Logits that overflow float64 cannot be written as JSON: the request
// whose input drives them out of range gets a 400 envelope, and a finite
// request that rode in the same batch is answered normally.
func TestHTTPPredictNonFiniteLogits400(t *testing.T) {
	m := testModel(3)
	m.Params()[0].Value.Data()[0] *= 1e3 // lets a ±1.7e308 input overflow the first conv
	rm, err := modelio.Export(m, testArch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "overflow.bin")
	if err := modelio.Save(path, rm); err != nil {
		t.Fatal(err)
	}
	huge := make([]float64, m.InputLen())
	for i := range huge {
		huge[i] = math.Copysign(1.7e308, float64(i%2)-0.5)
	}
	logits, err := referenceModel(t, path).EvalBatch([][]float64{huge})
	if err != nil {
		t.Fatal(err)
	}
	if v := logits[0][0]; !math.IsNaN(v) && !math.IsInf(v, 0) {
		t.Fatalf("precondition: offline logits %v are finite", logits[0])
	}

	r, ts := httpServer(t, testOpts(4, 16))
	en, err := r.LoadFile("demo", path)
	if err != nil {
		t.Fatal(err)
	}
	stalled, release := stallFirstFlush(en.engine)
	first := predictAsync(ts.URL, predictRequest{Model: "demo", Input: testInputs(1, m.InputLen(), 73)[0]})
	<-stalled
	bad := predictAsync(ts.URL, predictRequest{Model: "demo", Input: huge})
	good := predictAsync(ts.URL, predictRequest{Model: "demo", Input: testInputs(1, m.InputLen(), 74)[0]})
	waitQueueLen(en.engine, 2)
	release()

	rep := <-bad
	if rep.status != http.StatusBadRequest {
		t.Fatalf("overflowing predict: status %d, want 400 (%d-byte body %q)", rep.status, len(rep.body), rep.body)
	}
	if e, err := api.ParseError(rep.body); err != nil || e.Code != api.CodeBadRequest || e.TraceID == "" {
		t.Fatalf("overflowing predict: envelope %+v (%v), want bad_request with a trace_id", e, err)
	}
	for _, c := range []<-chan reply{first, good} {
		rep := <-c
		var resp predictResponse
		if err := json.Unmarshal(rep.body, &resp); rep.status != http.StatusOK || err != nil || len(resp.Predictions) != 1 {
			t.Fatalf("finite predict: status %d, %v (%s)", rep.status, err, rep.body)
		}
	}
	if got, want := en.Stats().BatchHist, map[int]int64{1: 1, 2: 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("batch histogram %v, want %v: the two requests did not share a batch", got, want)
	}
}

func TestHTTPModelsAndHealthAndStats(t *testing.T) {
	path := writeReleased(t, 65, true)
	opts := Options{MaxBatch: 4, QueueDepth: 16, Threads: 1}
	r, ts := httpServer(t, opts)
	en, err := r.LoadFile("demo", path)
	if err != nil {
		t.Fatal(err)
	}

	status, body := getJSON(t, ts.URL+"/v1/models")
	if status != http.StatusOK {
		t.Fatalf("models status %d", status)
	}
	var infos []modelInfo
	if err := json.Unmarshal(body["models"], &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "demo" || infos[0].Digest != en.Digest || !infos[0].Quantized {
		t.Fatalf("models = %+v", infos)
	}

	status, body = getJSON(t, ts.URL+"/healthz")
	if status != http.StatusOK || string(body["status"]) != `"ok"` {
		t.Fatalf("healthz status %d body %v", status, body)
	}

	// Serve one request so the stats have content.
	if status, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "demo", Input: testInputs(1, en.Model().InputLen(), 66)[0]}); status != http.StatusOK {
		t.Fatalf("predict status %d (%s)", status, body["error"])
	}
	status, body = getJSON(t, ts.URL+"/statsz")
	if status != http.StatusOK {
		t.Fatalf("statsz status %d", status)
	}
	var perModel map[string]Snapshot
	if err := json.Unmarshal(body["models"], &perModel); err != nil {
		t.Fatal(err)
	}
	if perModel["demo"].Served != 1 {
		t.Fatalf("statsz served = %d, want 1", perModel["demo"].Served)
	}
}

// The server-side audit must reproduce the offline dacextract -audit
// verdict on the same released file, score for score.
func TestHTTPAuditMatchesOfflineVerdict(t *testing.T) {
	for _, quantized := range []bool{false, true} {
		path := writeReleased(t, 67, quantized)
		opts := Options{MaxBatch: 4, QueueDepth: 16, Threads: 1}
		r, ts := httpServer(t, opts)
		en, err := r.LoadFile("demo", path)
		if err != nil {
			t.Fatal(err)
		}

		bounds := core.CIFARRelease().GroupBounds
		offline := attack.AuditModel(referenceModel(t, path), bounds, 0)

		resp, err := http.Post(ts.URL+"/v1/models/demo:audit", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var got auditResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("audit status %d", resp.StatusCode)
		}

		if got.Suspicious != offline.Suspicious {
			t.Fatalf("quantized=%v: served verdict %v != offline %v", quantized, got.Suspicious, offline.Suspicious)
		}
		if got.Quantized != offline.Quantized || got.Threshold != offline.Threshold || got.Global != offline.Global {
			t.Fatalf("quantized=%v: served report %+v != offline %+v", quantized, got, offline)
		}
		if len(got.PerGroup) != len(offline.PerGroup) {
			t.Fatalf("per-group count %d != %d", len(got.PerGroup), len(offline.PerGroup))
		}
		for i, g := range got.PerGroup {
			if g.Name != offline.PerGroup[i].Name || g.Score != offline.PerGroup[i].Score {
				t.Fatalf("group %d: served %+v != offline %+v", i, g, offline.PerGroup[i])
			}
		}
		if got.Digest != en.Digest {
			t.Fatal("audit digest mismatch")
		}

		// Unknown model and unknown operation 404.
		if resp, err := http.Post(ts.URL+"/v1/models/nope:audit", "application/json", nil); err != nil {
			t.Fatal(err)
		} else {
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("unknown model audit status %d", resp.StatusCode)
			}
		}
		if resp, err := http.Post(ts.URL+"/v1/models/demo:explode", "application/json", nil); err != nil {
			t.Fatal(err)
		} else {
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("unknown op status %d", resp.StatusCode)
			}
		}
		ts.Close()
		r.Close()
	}
}

// After registry shutdown (the drain step of graceful shutdown), predicts
// answer 503.
func TestHTTPPredictAfterShutdown503(t *testing.T) {
	path := writeReleased(t, 68, false)
	opts := Options{MaxBatch: 4, QueueDepth: 16, Threads: 1}
	r, ts := httpServer(t, opts)
	en, err := r.LoadFile("demo", path)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	status, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "demo", Input: make([]float64, en.Model().InputLen())})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", status, body["error"])
	}
}

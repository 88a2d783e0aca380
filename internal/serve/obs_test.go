package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/obs"
)

// The /statsz snapshot shape is API: dashboards parse it. The golden
// serialization pins every key (and the omitempty behaviour of errored and
// batch_hist) across the migration onto the obs registry.
func TestStatszSnapshotJSONShapeGolden(t *testing.T) {
	path := writeReleased(t, 90, false)
	opts := testOpts(4, 16)
	opts.Obs = obs.NewRegistry()
	r := NewRegistry(opts)
	defer r.Close()
	en, err := r.LoadFile("demo", path)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := predictOne(en, testInputs(1, en.Model().InputLen(), 91)[0]); err != nil {
		t.Fatal(err)
	}

	snap := en.Stats()
	got, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`{"accepted":1,"served":1,"rejected":0,"batches":1,"batch_hist":{"1":1},"mean_batch":1,"queue_depth":0,"mean_latency_ms":%g,"max_latency_ms":%g}`,
		snap.MeanLatencyMS, snap.MaxLatencyMS)
	if string(got) != want {
		t.Fatalf("statsz snapshot shape changed:\ngot:  %s\nwant: %s", got, want)
	}
	if snap.MeanLatencyMS <= 0 || snap.MaxLatencyMS < snap.MeanLatencyMS {
		t.Fatalf("latency stats implausible: %+v", snap)
	}
}

// Engine metric series live on the obs registry with model labels; a hot
// swap replaces them (fresh engine starts from zero) without touching the
// old engine's detached instances, and Remove unregisters them.
func TestServeMetricsLifecycleOnObsRegistry(t *testing.T) {
	path := writeReleased(t, 92, false)
	oreg := obs.NewRegistry()
	opts := testOpts(4, 16)
	opts.Obs = oreg
	r := NewRegistry(opts)
	defer r.Close()
	en, err := r.LoadFile("demo", path)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := predictOne(en, testInputs(1, en.Model().InputLen(), 93)[0]); err != nil {
		t.Fatal(err)
	}

	snap := oreg.Snapshot()
	if got := snap.Counters[`serve_requests_served_total{model="demo"}`]; got != 1 {
		t.Fatalf("served series = %d, want 1 (counters: %v)", got, snap.Counters)
	}
	bs := snap.Histograms[`serve_batch_size{model="demo"}`]
	if bs.Count != 1 || len(bs.Bounds) != opts.MaxBatch {
		t.Fatalf("batch size hist = %+v, want count 1 over %d exact buckets", bs, opts.MaxBatch)
	}
	lat := snap.Histograms[`serve_batch_latency_seconds{model="demo"}`]
	if !reflect.DeepEqual(lat.Bounds, DefaultLatencyBuckets) {
		t.Fatalf("latency bounds = %v, want DefaultLatencyBuckets %v", lat.Bounds, DefaultLatencyBuckets)
	}

	// Hot swap: same names, fresh instances starting at zero; the old
	// engine's snapshot still reads its detached counters.
	if _, err := r.LoadFile("demo", path); err != nil {
		t.Fatal(err)
	}
	if got := oreg.Snapshot().Counters[`serve_requests_served_total{model="demo"}`]; got != 0 {
		t.Fatalf("swapped-in series = %d, want 0", got)
	}
	if en.Stats().Served != 1 {
		t.Fatalf("old engine lost its detached count: %+v", en.Stats())
	}

	// Remove unregisters the current engine's series.
	if !r.Remove("demo") {
		t.Fatal("Remove returned false")
	}
	if _, ok := oreg.Snapshot().Counters[`serve_requests_served_total{model="demo"}`]; ok {
		t.Fatal("Remove left the served series registered")
	}
}

// Regression for the shutdown race: /statsz and /metricsz snapshots must be
// safe while Close's drain pass is still answering queued requests (run
// under -race by make race-fast).
func TestStatsDuringShutdownNoRace(t *testing.T) {
	path := writeReleased(t, 94, false)
	oreg := obs.NewRegistry()
	opts := testOpts(4, 64)
	opts.Obs = oreg
	r := NewRegistry(opts)
	en, err := r.LoadFile("demo", path)
	if err != nil {
		t.Fatal(err)
	}

	inputs := testInputs(24, en.Model().InputLen(), 95)
	var wg sync.WaitGroup
	for _, in := range inputs {
		wg.Add(1)
		go func(in []float64) {
			defer wg.Done()
			predictOne(en, in) // ErrClosed for late arrivals is fine
		}(in)
	}
	// Wait until at least one request is in, so the drain has work to race
	// the readers against.
	for en.Stats().Accepted == 0 {
		time.Sleep(time.Millisecond)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Stats()
				oreg.WritePrometheus(io.Discard)
			}
		}
	}()

	r.Close() // drains every accepted request while the reader hammers
	wg.Wait()
	close(stop)
	readers.Wait()

	// Requests that hit ErrClosed were neither accepted nor rejected, so
	// only the drain identity is asserted: everything accepted was answered.
	snap := en.Stats()
	if snap.Accepted != snap.Served+snap.Errored {
		t.Fatalf("drain left accepted requests unanswered: %+v", snap)
	}
	if snap.Served > int64(len(inputs)) {
		t.Fatalf("served %d > submitted %d", snap.Served, len(inputs))
	}
}

// /metricsz exposes the full obs registry in Prometheus text form (and as
// JSON with ?format=json).
func TestHTTPMetricsEndpoint(t *testing.T) {
	path := writeReleased(t, 96, false)
	opts := Options{MaxBatch: 4, QueueDepth: 16, Threads: 1, Obs: obs.NewRegistry()}
	r, ts := httpServer(t, opts)
	en, err := r.LoadFile("demo", path)
	if err != nil {
		t.Fatal(err)
	}
	if status, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "demo", Input: testInputs(1, en.Model().InputLen(), 97)[0]}); status != http.StatusOK {
		t.Fatalf("predict status %d (%s)", status, body["error"])
	}

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("metricsz status %d content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	for _, want := range []string{
		"# TYPE serve_requests_served_total counter",
		`serve_requests_served_total{model="demo"} 1`,
		`serve_batch_size_bucket{model="demo",le="+Inf"} 1`,
		"serve_http_requests_total",
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("metricsz missing %q:\n%s", want, text)
		}
	}

	status, body := getJSON(t, ts.URL+"/metricsz?format=json")
	if status != http.StatusOK {
		t.Fatalf("metricsz json status %d", status)
	}
	var counters map[string]int64
	if err := json.Unmarshal(body["counters"], &counters); err != nil {
		t.Fatal(err)
	}
	if counters[`serve_requests_served_total{model="demo"}`] != 1 {
		t.Fatalf("json counters = %v", counters)
	}
}

// Any HTTP client picks the model name of a :load, and the name becomes the
// model label of every engine series. A tab, quote, backslash, newline or
// invalid UTF-8 in it must still leave every /metricsz line valid UTF-8
// with only the text format's legal escapes, or a strict scraper rejects
// the whole page.
func TestLoadedModelLabelsExposeAsValidPrometheus(t *testing.T) {
	store := testStore(t)
	digest, err := PublishReleaseFile(store, writeReleased(t, 98, false))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := httpServer(t, Options{MaxBatch: 4, QueueDepth: 16, Threads: 1, Store: store, Obs: obs.NewRegistry()})
	names := []string{"tab%09here", "say%22hi%22", "back%5Cslash", "line%0Afeed", "caf%C3%A9", "raw%FFbyte"}
	for _, name := range names {
		if status, body := postJSON(t, ts.URL+"/v1/models/"+name+":load", loadRequest{Digest: digest}); status != http.StatusOK {
			t.Fatalf("load %s: status %d (%s)", name, status, body["error"])
		}
	}

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// One sample line: name, optional labels whose values escape only \\,
	// \" and \n, then a value.
	label := `[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"`
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{` + label + `(?:,` + label + `)*\})? \S+$`)
	served := 0
	for _, line := range strings.Split(strings.TrimSuffix(string(text), "\n"), "\n") {
		if !utf8.ValidString(line) {
			t.Fatalf("line %q is not valid UTF-8", line)
		}
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if !sample.MatchString(line) {
			t.Fatalf("line %q is not a valid text-format sample", line)
		}
		if strings.HasPrefix(line, "serve_requests_served_total{") {
			served++
		}
	}
	if served != len(names) {
		t.Fatalf("exposed %d served-requests series, want one per model (%d):\n%s", served, len(names), text)
	}
}

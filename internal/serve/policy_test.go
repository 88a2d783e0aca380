package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"

	"repro/internal/api"
	"repro/internal/obs"
)

func TestPolicyValidate(t *testing.T) {
	for _, ok := range []Policy{
		{},
		{Mode: PolicyFull},
		{Mode: PolicyTop1, Round: 3},
		{Mode: PolicyLabel, QueryBudget: 100},
		{Round: maxRound},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []Policy{
		{Mode: "argmax"},
		{Round: -1},
		{Round: maxRound + 1},
		{QueryBudget: -5},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", bad)
		}
	}
}

func TestPolicyApply(t *testing.T) {
	fresh := func() []api.Prediction {
		return []api.Prediction{{
			Class:  2,
			Probs:  []float64{0.124999, 0.25, 0.5, 0.125001},
			Logits: []float64{-1.23456, 0, 1.98765, -1.2},
		}}
	}

	if mode := (Policy{}).Apply(fresh()); mode != "" {
		t.Fatalf("zero policy mode = %q, want \"\"", mode)
	}

	preds := fresh()
	if mode := (Policy{Round: 2}).Apply(preds); mode != "" {
		t.Fatalf("round-only mode = %q, want \"\"", mode)
	}
	if want := []float64{0.12, 0.25, 0.5, 0.13}; !equalFloats(preds[0].Probs, want) {
		t.Fatalf("rounded probs %v, want %v", preds[0].Probs, want)
	}
	if want := []float64{-1.23, 0, 1.99, -1.2}; !equalFloats(preds[0].Logits, want) {
		t.Fatalf("rounded logits %v, want %v", preds[0].Logits, want)
	}

	preds = fresh()
	if mode := (Policy{Mode: PolicyTop1, Round: 1}).Apply(preds); mode != PolicyTop1 {
		t.Fatalf("top1 mode = %q", mode)
	}
	if preds[0].Probs != nil || preds[0].Logits != nil {
		t.Fatalf("top1 leaked scores: %+v", preds[0])
	}
	if preds[0].TopProb != 0.5 || preds[0].Class != 2 {
		t.Fatalf("top1 kept top_prob=%v class=%d", preds[0].TopProb, preds[0].Class)
	}

	preds = fresh()
	if mode := (Policy{Mode: PolicyLabel}).Apply(preds); mode != PolicyLabel {
		t.Fatalf("label mode = %q", mode)
	}
	if preds[0].Probs != nil || preds[0].Logits != nil || preds[0].TopProb != 0 {
		t.Fatalf("label leaked scores: %+v", preds[0])
	}
}

func equalFloats(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			return false
		}
	}
	return true
}

func TestRegistrySetPolicy(t *testing.T) {
	r := NewRegistry(testOpts(4, 16))
	defer r.Close()
	if err := r.SetPolicy("m", Policy{Mode: "bogus"}); err == nil {
		t.Fatal("invalid policy accepted")
	}
	if err := r.SetPolicy("m", Policy{Round: 2}); err != nil {
		t.Fatal(err)
	}
	if got := r.PolicyFor("m"); got.Round != 2 {
		t.Fatalf("PolicyFor = %+v", got)
	}
	// Setting the zero policy clears the entry.
	if err := r.SetPolicy("m", Policy{}); err != nil {
		t.Fatal(err)
	}
	if got := r.PolicyFor("m"); got.Active() {
		t.Fatalf("cleared policy still active: %+v", got)
	}
}

func TestDetectorFlagsNovelHighVolume(t *testing.T) {
	d := newDetector(Options{Obs: obs.NewRegistry()})

	// The attacker: every input bit-distinct, past the volume floor.
	attacker := testInputs(detectMinQueries+44, 8, 1)
	d.Observe("mallory", attacker)
	// The dashboard: one hot input, repeated well past the volume floor.
	same := [][]float64{attacker[0]}
	for i := 0; i < detectMinQueries+44; i++ {
		d.Observe("grafana", same)
	}
	// Low volume, fully novel: below the floor, never flagged.
	d.Observe("casual", testInputs(3, 8, 2))

	rep := d.Report()
	if rep.Flagged != 1 {
		t.Fatalf("flagged %d clients, want 1: %+v", rep.Flagged, rep.Clients)
	}
	byClient := map[string]ClientDetectReport{}
	for _, c := range rep.Clients {
		byClient[c.Client] = c
	}
	if !byClient["mallory"].Flagged {
		t.Fatalf("attacker not flagged: %+v", byClient["mallory"])
	}
	if byClient["grafana"].Flagged || byClient["casual"].Flagged {
		t.Fatalf("honest clients flagged: %+v", rep.Clients)
	}
	if c := byClient["grafana"]; c.Distinct != 1 || c.Queries != detectMinQueries+44 {
		t.Fatalf("repeat client profile: %+v", c)
	}
}

func TestDetectorClientOverflow(t *testing.T) {
	d := newDetector(Options{Obs: obs.NewRegistry()})
	for i := 0; i < obs.DefaultMaxLabelValues+2; i++ {
		d.Observe(fmt.Sprintf("client%d", i), testInputs(2, 4, int64(i+1)))
	}
	rep := d.Report()
	if len(rep.Clients) != obs.DefaultMaxLabelValues+1 {
		t.Fatalf("tracked %d profiles, want %d + overflow: %+v", len(rep.Clients), obs.DefaultMaxLabelValues, rep.Clients)
	}
	byClient := map[string]ClientDetectReport{}
	for _, c := range rep.Clients {
		byClient[c.Client] = c
	}
	if got := byClient[obs.OverflowLabel]; got.Queries != 4 {
		t.Fatalf("overflow profile collected %d queries, want 4 (the last two clients collapsed)", got.Queries)
	}
}

// TestHTTPPredictOmitScoresAndVersion covers the versioned predict
// envelope: the response echoes the api version, and omit_scores strips
// probs/logits without any server-side policy.
func TestHTTPPredictOmitScoresAndVersion(t *testing.T) {
	path := writeReleased(t, 60, false)
	opts := Options{MaxBatch: 4, QueueDepth: 64, Threads: 2}
	r, ts := httpServer(t, opts)
	if _, err := r.LoadFile("demo", path); err != nil {
		t.Fatal(err)
	}
	in := testInputs(1, referenceModel(t, path).InputLen(), 61)[0]

	status, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{API: api.Version, Model: "demo", Input: in, OmitScores: true})
	if status != http.StatusOK {
		t.Fatalf("predict status %d: %s", status, body["error"])
	}
	if got := string(body["api"]); got != `"v1"` {
		t.Fatalf("response api = %s, want \"v1\"", got)
	}
	var preds []Prediction
	if err := json.Unmarshal(body["predictions"], &preds); err != nil {
		t.Fatal(err)
	}
	if preds[0].Probs != nil || preds[0].Logits != nil || preds[0].TopProb != 0 {
		t.Fatalf("omit_scores leaked scores: %+v", preds[0])
	}
}

// TestHTTPPolicyEndpoint drives the :policy get/set round trip and the
// policy's effect on predictions, all without reloading the model.
func TestHTTPPolicyEndpoint(t *testing.T) {
	path := writeReleased(t, 60, false)
	opts := Options{MaxBatch: 4, QueueDepth: 64, Threads: 2}
	r, ts := httpServer(t, opts)
	if _, err := r.LoadFile("demo", path); err != nil {
		t.Fatal(err)
	}
	in := testInputs(1, referenceModel(t, path).InputLen(), 61)[0]

	// Get before set: inactive.
	resp, err := http.Post(ts.URL+"/v1/models/demo:policy", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var pr struct {
		Model  string `json:"model"`
		Policy Policy `json:"policy"`
		Active bool   `json:"active"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pr.Active || pr.Model != "demo" {
		t.Fatalf("fresh policy: %+v", pr)
	}

	// Invalid policy: rejected with the envelope, nothing applied.
	status, body := postJSON(t, ts.URL+"/v1/models/demo:policy", Policy{Mode: "argmax"})
	if status != http.StatusBadRequest {
		t.Fatalf("invalid policy answered %d: %v", status, body)
	}
	if got := string(body["code"]); got != `"bad_request"` {
		t.Fatalf("invalid policy code = %s", got)
	}

	// Set rounding, hot: predictions now carry rounded probs.
	status, body = postJSON(t, ts.URL+"/v1/models/demo:policy", Policy{Round: 2})
	if status != http.StatusOK {
		t.Fatalf("policy set answered %d: %v", status, body)
	}
	status, body = postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "demo", Input: in})
	if status != http.StatusOK {
		t.Fatalf("predict status %d: %s", status, body["error"])
	}
	var preds []Prediction
	if err := json.Unmarshal(body["predictions"], &preds); err != nil {
		t.Fatal(err)
	}
	for _, p := range preds[0].Probs {
		if r := roundTo(p, 2); r != p {
			t.Fatalf("prob %v not rounded to 2 decimals", p)
		}
	}
	if r.PolicyFor("demo") != (Policy{Round: 2}) {
		t.Fatalf("registry policy = %+v", r.PolicyFor("demo"))
	}
}

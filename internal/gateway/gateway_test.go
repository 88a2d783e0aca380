package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// Predictions routed through the gateway must be bit-identical to a
// direct single-replica dacserve answer — the gateway forwards bodies
// verbatim, and every replica serves byte-identical weights, so nothing
// on the fleet path may perturb a logit.
func TestGatewayPredictBitIdenticalToDirect(t *testing.T) {
	store := testStore(t)
	path := writeReleased(t, 60, true)
	digest, err := serve.PublishReleaseFile(store, path)
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := startReplica(t, "r0", store), startReplica(t, "r1", store)
	for _, rep := range []*testReplica{r0, r1} {
		if _, err := rep.reg.LoadDigest("prod", digest, serve.ModeAuto); err != nil {
			t.Fatal(err)
		}
	}
	g := testGateway(t, Options{}, r0, r1)
	ts := gatewayServer(t, g)

	ref := referenceModel(t, path)
	inputs := testInputs(5, ref.InputLen(), 61)
	want, err := ref.EvalBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range inputs {
		status, body := postPredict(t, ts.URL, predictBody(t, "prod", in))
		if status != http.StatusOK {
			t.Fatalf("predict %d status %d: %s", i, status, body["error"])
		}
		var preds []serve.Prediction
		if err := json.Unmarshal(body["predictions"], &preds); err != nil {
			t.Fatal(err)
		}
		if len(preds) != 1 {
			t.Fatalf("predict %d: %d predictions", i, len(preds))
		}
		for j, v := range preds[0].Logits {
			if v != want[i][j] {
				t.Fatalf("sample %d logit %d: routed %v != offline %v", i, j, v, want[i][j])
			}
		}
		var gotDigest string
		if err := json.Unmarshal(body["digest"], &gotDigest); err != nil {
			t.Fatal(err)
		}
		if gotDigest != digest {
			t.Fatalf("routed answer digest %s != published %s", short(gotDigest), short(digest))
		}
	}
}

// pickStubModel finds a model name whose ring owner is the given replica,
// so retry/shed tests route deterministically.
func pickStubModel(t testing.TB, g *Gateway, owner *Replica) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("model-%d", i)
		if g.currentRing().owner(name) == owner {
			return name
		}
	}
	t.Fatal("no model name hashes onto the wanted owner")
	return ""
}

// A 429 from the owner (replica backpressure) must be retried once on the
// next ring candidate instead of surfacing to the client.
func TestGatewayRetryOn429(t *testing.T) {
	for _, failStatus := range []int{http.StatusTooManyRequests, http.StatusInternalServerError} {
		t.Run(fmt.Sprintf("status=%d", failStatus), func(t *testing.T) {
			overloaded, healthy := newStub(t), newStub(t)
			overloaded.predictStatus.Store(int32(failStatus))
			g, reps := stubGateway(t, Options{}, overloaded, healthy)
			g.ProbeAll(context.Background())
			model := pickStubModel(t, g, reps[0])
			ts := gatewayServer(t, g)

			status, body := postPredict(t, ts.URL, []byte(fmt.Sprintf(`{"model":%q,"input":[1]}`, model)))
			if status != http.StatusOK {
				t.Fatalf("status %d, want 200 after retry (%s)", status, body["error"])
			}
			if got := g.retries.Value(); got != 1 {
				t.Fatalf("retries = %d, want 1", got)
			}
			if overloaded.predicts.Load() != 1 || healthy.predicts.Load() != 1 {
				t.Fatalf("attempt split %d/%d, want 1/1",
					overloaded.predicts.Load(), healthy.predicts.Load())
			}
			// The failing replica answered HTTP (it is alive, just failing);
			// backpressure must not mark it unhealthy.
			if reps[0].State() != StateHealthy {
				t.Fatalf("429/5xx marked replica %v", reps[0].State())
			}
		})
	}
}

// With every candidate at the hard in-flight cap the gateway sheds with
// 503 instead of queueing without bound.
func TestGatewayShedsWhenSaturated(t *testing.T) {
	s0, s1 := newStub(t), newStub(t)
	g, reps := stubGateway(t, Options{MaxInflight: 1}, s0, s1)
	g.ProbeAll(context.Background())
	ts := gatewayServer(t, g)

	// Pin both replicas at the cap.
	reps[0].inflight.Add(1)
	reps[1].inflight.Add(1)
	status, body := postPredict(t, ts.URL, []byte(`{"model":"m","input":[1]}`))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 shed (%s)", status, body["error"])
	}
	if got := g.sheds.Value(); got != 1 {
		t.Fatalf("sheds = %d, want 1", got)
	}
	// Capacity back → requests flow again.
	reps[0].inflight.Add(-1)
	reps[1].inflight.Add(-1)
	if status, body := postPredict(t, ts.URL, []byte(`{"model":"m","input":[1]}`)); status != http.StatusOK {
		t.Fatalf("status %d after capacity returned (%s)", status, body["error"])
	}
}

// Routing takes the candidate with the fewest requests in flight, ring
// order breaking ties: an idle pool sends the model to its owner, an owner
// with a request in flight yields to an idle replica, a tie goes back to
// the owner, and a pool with every candidate at the cap sheds.
func TestGatewayBusyOwnerYieldsToIdleReplica(t *testing.T) {
	owner, other := newStub(t), newStub(t)
	g, reps := stubGateway(t, Options{MaxInflight: 2}, owner, other)
	g.ProbeAll(context.Background())
	model := pickStubModel(t, g, reps[0])
	ts := gatewayServer(t, g)
	body := []byte(fmt.Sprintf(`{"model":%q,"input":[1]}`, model))

	for _, step := range []struct {
		name           string
		inflight       [2]int64 // added to reps[0], reps[1] before the request
		status         int
		ownerN, otherN int64
	}{
		{"idle pool", [2]int64{0, 0}, http.StatusOK, 1, 0},
		{"busy owner", [2]int64{1, 0}, http.StatusOK, 1, 1},
		{"tie", [2]int64{0, 1}, http.StatusOK, 2, 1},
		{"all at cap", [2]int64{1, 1}, http.StatusServiceUnavailable, 2, 1},
	} {
		reps[0].inflight.Add(step.inflight[0])
		reps[1].inflight.Add(step.inflight[1])
		status, out := postPredict(t, ts.URL, body)
		if status != step.status || owner.predicts.Load() != step.ownerN || other.predicts.Load() != step.otherN {
			t.Fatalf("%s: status %d, predicts owner/other %d/%d; want %d, %d/%d (%s)", step.name, status,
				owner.predicts.Load(), other.predicts.Load(), step.status, step.ownerN, step.otherN, out["error"])
		}
	}
	if got := g.sheds.Value(); got != 1 {
		t.Fatalf("sheds = %d, want 1", got)
	}
}

// An empty ring (no replica has ever probed ready) answers 503 and counts
// no_replica, and /readyz reflects it.
func TestGatewayNoReadyReplica(t *testing.T) {
	stub := newStub(t)
	stub.ready.Store(false)
	g, _ := stubGateway(t, Options{}, stub)
	g.ProbeAll(context.Background())
	ts := gatewayServer(t, g)

	if status, _ := getJSON(t, ts.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz status %d, want 503", status)
	}
	status, body := postPredict(t, ts.URL, []byte(`{"model":"m","input":[1]}`))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("predict status %d, want 503 (%s)", status, body["error"])
	}
	if g.noReplica.Value() != 1 {
		t.Fatalf("no_replica = %d, want 1", g.noReplica.Value())
	}

	stub.ready.Store(true)
	g.ProbeAll(context.Background())
	if status, _ := getJSON(t, ts.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("readyz status %d after replica became ready", status)
	}
}

// A replica whose serve.Server starts draining is ejected on the next
// probe pass — before its process exits — and traffic continues on the
// rest of the pool.
func TestGatewayDrainEjectsReplicaBeforeExit(t *testing.T) {
	store := testStore(t)
	digest := publishReleased(t, store, 62, false)
	r0, r1 := startReplica(t, "r0", store), startReplica(t, "r1", store)
	for _, rep := range []*testReplica{r0, r1} {
		if _, err := rep.reg.LoadDigest("prod", digest, serve.ModeAuto); err != nil {
			t.Fatal(err)
		}
	}
	g := testGateway(t, Options{}, r0, r1)
	ts := gatewayServer(t, g)
	in := testInputs(1, r0.reg.List()[0].Model().InputLen(), 63)[0]

	// The dacserve shutdown sequence: StartDrain first, listener up until
	// the grace period passes. The gateway's next probe ejects it.
	r0.srv.StartDrain()
	gen := g.Generation()
	if n := g.ProbeAll(context.Background()); n != 1 {
		t.Fatalf("eligible = %d after drain probe, want 1", n)
	}
	if g.Generation() == gen {
		t.Fatal("drain ejection did not bump ring generation")
	}
	for i := 0; i < 8; i++ {
		if status, body := postPredict(t, ts.URL, predictBody(t, "prod", in)); status != http.StatusOK {
			t.Fatalf("request %d during drain: status %d (%s)", i, status, body["error"])
		}
	}
	// Every routed request must have landed on the surviving replica.
	if served := r1.reg.Stats()["prod"].Served; served < 8 {
		t.Fatalf("survivor served %d, want >= 8", served)
	}
}

// A replica that dies mid-traffic (transport error, no probe yet) is
// marked down passively after FailAfter failed attempts; the requests
// that hit it retry onto the survivor.
func TestGatewayPassiveFailureMarksDown(t *testing.T) {
	dead, live := newStub(t), newStub(t)
	g, reps := stubGateway(t, Options{FailAfter: 1}, dead, live)
	g.ProbeAll(context.Background())
	model := pickStubModel(t, g, reps[0])
	ts := gatewayServer(t, g)

	dead.ts.Close()
	status, body := postPredict(t, ts.URL, []byte(fmt.Sprintf(`{"model":%q,"input":[1]}`, model)))
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200 via retry (%s)", status, body["error"])
	}
	if reps[0].State() != StateDown {
		t.Fatalf("dead replica state %v, want down (passive)", reps[0].State())
	}
	// Off the ring now: follow-up traffic for the same model routes
	// straight to the survivor with no second attempt.
	before := g.retries.Value()
	if status, _ := postPredict(t, ts.URL, []byte(fmt.Sprintf(`{"model":%q,"input":[1]}`, model))); status != http.StatusOK {
		t.Fatalf("follow-up status %d", status)
	}
	if g.retries.Value() != before {
		t.Fatal("routing to a passively-downed replica still retried")
	}
}

// A replica that accepts a predict and never answers: the attempt times
// out, counts as a passive failure and retries onto the other replica;
// FailAfter such requests take the replica off the ring; and with every
// replica hung the client still gets the 502 envelope, never a hang.
func TestGatewayHungReplica(t *testing.T) {
	const timeout = 300 * time.Millisecond
	hung, live := newStub(t), newStub(t)
	hung.hung.Store(true)
	g, reps := stubGateway(t, Options{RequestTimeout: timeout, FailAfter: 2}, hung, live)
	g.ProbeAll(context.Background())
	model := pickStubModel(t, g, reps[0])
	srv := NewServer(g)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	body := []byte(fmt.Sprintf(`{"model":%q,"input":[1]}`, model))

	// (a) The owner hangs; the other replica answers within one timeout.
	start := time.Now()
	if status, out := postPredict(t, ts.URL, body); status != http.StatusOK {
		t.Fatalf("status %d, want 200 via retry (%s)", status, out["error"])
	}
	if d := time.Since(start); d > timeout+time.Second {
		t.Fatalf("answered after %v, want within %v", d, timeout+time.Second)
	}
	rec := srv.Traces().Snapshot().Recent[0]
	a0, ok0 := spanByName(rec.Spans, "attempt0")
	a1, ok1 := spanByName(rec.Spans, "attempt1")
	if !ok0 || !ok1 || a0.Detail != reps[0].ID || a1.Detail != reps[1].ID {
		t.Fatalf("attempt spans %+v, want attempt0 on %s and attempt1 on %s", rec.Spans, reps[0].ID, reps[1].ID)
	}
	reps[0].mu.Lock()
	fails := reps[0].fails
	reps[0].mu.Unlock()
	if g.retries.Value() != 1 || fails != 1 || reps[0].State() != StateHealthy {
		t.Fatalf("retries %d, passive failures %d, state %v; want 1, 1, healthy",
			g.retries.Value(), fails, reps[0].State())
	}

	// (b) The FailAfter-th such request marks it down; the next one never
	// dials it.
	if status, out := postPredict(t, ts.URL, body); status != http.StatusOK {
		t.Fatalf("second request: status %d (%s)", status, out["error"])
	}
	if reps[0].State() != StateDown {
		t.Fatalf("hung replica state %v after 2 timeouts, want down", reps[0].State())
	}
	if status, _ := postPredict(t, ts.URL, body); status != http.StatusOK || hung.predicts.Load() != 2 {
		t.Fatalf("third request: status %d, hung replica dialed %d times; want 200, 2", status, hung.predicts.Load())
	}

	// (c) Every replica hung: a 502 envelope within both attempts' timeouts.
	h0, h1 := newStub(t), newStub(t)
	h0.hung.Store(true)
	h1.hung.Store(true)
	g2, _ := stubGateway(t, Options{RequestTimeout: timeout}, h0, h1)
	g2.ProbeAll(context.Background())
	ts2 := gatewayServer(t, g2)
	start = time.Now()
	status, out := postPredict(t, ts2.URL, body)
	if d := time.Since(start); d > 2*timeout+time.Second {
		t.Fatalf("answered after %v, want within %v", d, 2*timeout+time.Second)
	}
	if status != http.StatusBadGateway || string(out["code"]) != `"bad_gateway"` || len(out["trace_id"]) < 3 {
		t.Fatalf("status %d, envelope %v; want 502 bad_gateway with a trace_id", status, out)
	}
	if h0.predicts.Load() != 1 || h1.predicts.Load() != 1 {
		t.Fatalf("attempt split %d/%d, want 1/1", h0.predicts.Load(), h1.predicts.Load())
	}
}

// /v1/models aggregates the fleet and verdicts digest consistency.
func TestGatewayModelsAggregation(t *testing.T) {
	store := testStore(t)
	dA := publishReleased(t, store, 70, true)
	dB := publishReleased(t, store, 71, true)
	r0, r1 := startReplica(t, "r0", store), startReplica(t, "r1", store)
	for _, rep := range []*testReplica{r0, r1} {
		if _, err := rep.reg.LoadDigest("prod", dA, serve.ModeAuto); err != nil {
			t.Fatal(err)
		}
	}
	g := testGateway(t, Options{}, r0, r1)
	g.SetAssignment("prod", dA)
	ts := gatewayServer(t, g)

	status, body := getJSON(t, ts.URL+"/v1/models")
	if status != http.StatusOK {
		t.Fatalf("models status %d", status)
	}
	var models []fleetModel
	if err := json.Unmarshal(body["models"], &models); err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || !models[0].Consistent || models[0].Digest != dA || !models[0].MatchesAssignment {
		t.Fatalf("consistent fleet reported %+v", models)
	}
	if string(body["consistent"]) != "true" {
		t.Fatal("fleet-level consistent flag false on a consistent fleet")
	}

	// Split the fleet: one replica hot-swaps to a different release.
	if _, err := r1.reg.LoadDigest("prod", dB, serve.ModeAuto); err != nil {
		t.Fatal(err)
	}
	_, body = getJSON(t, ts.URL+"/v1/models")
	// Decode into a fresh slice: "digest" is omitempty, so reusing the
	// first decode's slice would leak its stale field through.
	var split []fleetModel
	if err := json.Unmarshal(body["models"], &split); err != nil {
		t.Fatal(err)
	}
	if len(split) != 1 || split[0].Consistent || split[0].Digest != "" {
		t.Fatalf("split fleet reported %+v", split)
	}
	if split[0].PerReplica["r0"] != dA || split[0].PerReplica["r1"] != dB {
		t.Fatalf("per-replica digests %+v", split[0].PerReplica)
	}
	if string(body["consistent"]) != "false" {
		t.Fatal("fleet-level consistent flag true on a split fleet")
	}
}

// Rolling reload: 4 replicas, live traffic throughout, zero failed client
// requests, and the whole fleet on the new digest afterwards. This is the
// zero-loss acceptance path: cordon → drain → pull-by-digest → uncordon,
// one replica at a time.
func TestGatewayRollingReloadZeroLoss(t *testing.T) {
	store := testStore(t)
	pathA := writeReleased(t, 80, true)
	dA, err := serve.PublishReleaseFile(store, pathA)
	if err != nil {
		t.Fatal(err)
	}
	dB := publishReleased(t, store, 81, true)
	if dA == dB {
		t.Fatal("test releases collide")
	}
	var replicas []*testReplica
	for i := 0; i < 4; i++ {
		rep := startReplica(t, fmt.Sprintf("r%d", i), store)
		if _, err := rep.reg.LoadDigest("prod", dA, serve.ModeAuto); err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, rep)
	}
	g := testGateway(t, Options{}, replicas...)
	ts := gatewayServer(t, g)
	in := testInputs(1, referenceModel(t, pathA).InputLen(), 82)[0]
	body := predictBody(t, "prod", in)

	// Hammer from 4 clients for the whole duration of the roll.
	var stop atomic.Bool
	var failures, total atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				status, resp := postPredict(t, ts.URL, body)
				total.Add(1)
				if status != http.StatusOK {
					failures.Add(1)
					t.Errorf("client request failed: %d (%s)", status, resp["error"])
					return
				}
				var gotDigest string
				if err := json.Unmarshal(resp["digest"], &gotDigest); err != nil {
					t.Error(err)
					return
				}
				if gotDigest != dA && gotDigest != dB {
					t.Errorf("answer digest %s is neither release", short(gotDigest))
					return
				}
			}
		}()
	}

	if err := g.RollingReload(context.Background(), "prod", dB); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d/%d client requests failed during the roll", failures.Load(), total.Load())
	}
	if total.Load() == 0 {
		t.Fatal("no client traffic overlapped the roll")
	}

	// The whole fleet now serves the new digest, consistently.
	_, resp := getJSON(t, ts.URL+"/v1/models")
	var models []fleetModel
	if err := json.Unmarshal(resp["models"], &models); err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || !models[0].Consistent || models[0].Digest != dB || !models[0].MatchesAssignment {
		t.Fatalf("post-roll fleet %+v, want consistent on %s", models, short(dB))
	}
	for _, rep := range replicas {
		en, ok := rep.reg.Get("prod")
		if !ok || en.Digest != dB {
			t.Fatalf("replica still serving old digest")
		}
		if rep.srv == nil {
			t.Fatal("unreachable")
		}
	}
	if got := g.Assignments()["prod"]; got != dB {
		t.Fatalf("assignment %s, want %s", short(got), short(dB))
	}
}

// The reload op drives the rolling reload over HTTP: the model name rides
// in the path, only the digest in the body.
func TestGatewayModelOpReloadEndpoint(t *testing.T) {
	store := testStore(t)
	dA := publishReleased(t, store, 86, true)
	dB := publishReleased(t, store, 87, true)
	r0 := startReplica(t, "r0", store)
	if _, err := r0.reg.LoadDigest("prod", dA, serve.ModeAuto); err != nil {
		t.Fatal(err)
	}
	g := testGateway(t, Options{}, r0)
	ts := gatewayServer(t, g)

	resp, err := http.Post(ts.URL+"/v1/models/prod:reload", "application/json",
		jsonBody(t, reloadRequest{Digest: dB}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("path reload status %d", resp.StatusCode)
	}
	if en, ok := r0.reg.Get("prod"); !ok || en.Digest != dB {
		t.Fatal("path reload did not distribute the digest")
	}
	// Unknown digest → the error surfaces as a 502 and the replica keeps
	// serving what it had.
	resp2, err := http.Post(ts.URL+"/v1/models/prod:reload", "application/json",
		jsonBody(t, reloadRequest{Digest: "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"}))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadGateway {
		t.Fatalf("bad-digest reload status %d, want 502", resp2.StatusCode)
	}
	if en, ok := r0.reg.Get("prod"); !ok || en.Digest != dB {
		t.Fatal("failed reload changed the served digest")
	}
	// Unknown op and missing op are 404s, not silent reloads.
	for _, path := range []string{"/v1/models/prod:audit", "/v1/models/prod"} {
		resp, err := http.Post(ts.URL+path, "application/json",
			jsonBody(t, reloadRequest{Digest: dB}))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status %d, want 404", path, resp.StatusCode)
		}
	}
}

package gateway

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// stubReplica is a controllable fake dacserve: health and readiness are
// knobs, predict answers a fixed status or, while hung, holds the request
// open until the caller gives up.
type stubReplica struct {
	healthy       atomic.Bool
	ready         atomic.Bool
	hung          atomic.Bool
	predictStatus atomic.Int32
	predicts      atomic.Int64
	ts            *httptest.Server
}

func newStub(t testing.TB) *stubReplica {
	t.Helper()
	s := &stubReplica{}
	s.healthy.Store(true)
	s.ready.Store(true)
	s.predictStatus.Store(http.StatusOK)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if !s.healthy.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ready"}`))
	})
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		s.predicts.Add(1)
		if s.hung.Load() {
			// Reading the body to EOF lets the server notice the caller
			// hang up, which is what ends the request context.
			io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			return
		}
		status := int(s.predictStatus.Load())
		w.WriteHeader(status)
		if status == http.StatusOK {
			w.Write([]byte(`{"model":"stub","digest":"deadbeef","predictions":[]}`))
		}
	})
	s.ts = httptest.NewServer(mux)
	t.Cleanup(s.ts.Close)
	return s
}

// stubGateway wires stubs into a gateway with manual probing.
func stubGateway(t testing.TB, opts Options, stubs ...*stubReplica) (*Gateway, []*Replica) {
	t.Helper()
	opts.ProbeInterval = -1
	opts.RetryBackoff = -1
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	g := New(opts)
	t.Cleanup(g.Close)
	reps := make([]*Replica, len(stubs))
	for i, st := range stubs {
		var err error
		reps[i], err = g.AddReplica("stub"+string(rune('0'+i)), st.ts.URL)
		if err != nil {
			t.Fatal(err)
		}
	}
	return g, reps
}

func TestHealthFSMLifecycle(t *testing.T) {
	stub := newStub(t)
	g, reps := stubGateway(t, Options{FailAfter: 2, ReviveAfter: 2}, stub)
	rep := reps[0]
	ctx := context.Background()

	// Unknown → Healthy on the first ready probe.
	if rep.State() != StateUnknown {
		t.Fatalf("initial state %v, want unknown", rep.State())
	}
	gen := g.Generation()
	if n := g.ProbeAll(ctx); n != 1 || rep.State() != StateHealthy {
		t.Fatalf("after ready probe: eligible=%d state=%v", n, rep.State())
	}
	if g.Generation() == gen {
		t.Fatal("becoming healthy did not bump the ring generation")
	}

	// Healthy → Draining immediately on a readyz 503 (no threshold).
	stub.ready.Store(false)
	if n := g.ProbeAll(ctx); n != 0 || rep.State() != StateDraining {
		t.Fatalf("after drain probe: eligible=%d state=%v", n, rep.State())
	}
	if got := g.currentRing().candidates("m"); got != nil {
		t.Fatalf("draining replica still on ring: %v", got)
	}

	// Draining → Healthy the moment readiness returns.
	stub.ready.Store(true)
	if n := g.ProbeAll(ctx); n != 1 || rep.State() != StateHealthy {
		t.Fatalf("after recovery probe: eligible=%d state=%v", n, rep.State())
	}

	// One failed probe is tolerated (FailAfter=2)...
	stub.healthy.Store(false)
	if g.ProbeAll(ctx); rep.State() != StateHealthy {
		t.Fatalf("one failure already changed state to %v", rep.State())
	}
	// ...the second marks it Down.
	if n := g.ProbeAll(ctx); n != 0 || rep.State() != StateDown {
		t.Fatalf("after second failure: eligible=%d state=%v", n, rep.State())
	}

	// Revival needs ReviveAfter=2 consecutive ready probes.
	stub.healthy.Store(true)
	if g.ProbeAll(ctx); rep.State() != StateHealthy && rep.State() != StateDown {
		t.Fatalf("unexpected state %v mid-revival", rep.State())
	}
	if rep.State() == StateHealthy {
		t.Fatal("one ready probe revived a Down replica (want two)")
	}
	if n := g.ProbeAll(ctx); n != 1 || rep.State() != StateHealthy {
		t.Fatalf("after revival probes: eligible=%d state=%v", n, rep.State())
	}
}

// A failure during revival resets the consecutive-success count: flapping
// replicas stay off the ring.
func TestHealthFSMFlapStaysDown(t *testing.T) {
	stub := newStub(t)
	g, reps := stubGateway(t, Options{FailAfter: 1, ReviveAfter: 2}, stub)
	rep := reps[0]
	ctx := context.Background()

	stub.healthy.Store(false)
	g.ProbeAll(ctx)
	if rep.State() != StateDown {
		t.Fatalf("state %v, want down", rep.State())
	}
	for i := 0; i < 3; i++ {
		stub.healthy.Store(true)
		g.ProbeAll(ctx) // one success...
		stub.healthy.Store(false)
		g.ProbeAll(ctx) // ...then a failure resets the streak
		if rep.State() != StateDown {
			t.Fatalf("flap %d: state %v, want down", i, rep.State())
		}
	}
}

// A dead listener (transport error, not an HTTP status) must count as a
// probe failure too.
func TestHealthProbeTransportError(t *testing.T) {
	stub := newStub(t)
	g, reps := stubGateway(t, Options{FailAfter: 1}, stub)
	ctx := context.Background()
	g.ProbeAll(ctx)
	if reps[0].State() != StateHealthy {
		t.Fatalf("state %v, want healthy", reps[0].State())
	}
	stub.ts.Close()
	if n := g.ProbeAll(ctx); n != 0 || reps[0].State() != StateDown {
		t.Fatalf("after dead-listener probe: eligible=%d state=%v", n, reps[0].State())
	}
}

package obs_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/compute"
	"repro/internal/gateway"
	"repro/internal/nn"
	"repro/internal/obs"
)

// The heap allocations of one single-sample /v1/predict (servingBench's
// model): through the replica's handler with tracing off and on, and
// through the gateway's handler to one in-process replica over loopback
// HTTP, both tiers' allocations counted. They move with the standard
// library, so they are pinned for the Go release they were recorded on.
const (
	allocsGo       = "go1.24.0"
	untracedAllocs = 280
	tracedAllocs   = 298
	gatewayAllocs  = 440
)

// raceBuild reports whether the test binary was built with -race, which
// instruments allocations and makes the counts meaningless.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// predictAllocsPerRun counts the allocations of one predict through h. The
// collector stays off meanwhile: a collection empties the sync.Pools that
// encoding/json and net/http draw buffers from, and the refills would land
// in whichever run it hit.
func predictAllocsPerRun(t *testing.T, h http.Handler, body []byte) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(50, func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("predict status %d: %s", w.Code, w.Body.String())
		}
	})
}

// An exact counter, not a timing: a change that adds per-request work to
// either tier's predict path raises a count and fails here.
func TestPredictAllocs(t *testing.T) {
	srv, body := servingBench(t)
	h := srv.Handler()
	srv.EnableTracing(false)
	plain := predictAllocsPerRun(t, h, body)
	srv.EnableTracing(true)
	traced := predictAllocsPerRun(t, h, body)

	srv.SetReady()
	replica := httptest.NewServer(h)
	defer replica.Close()
	g := gateway.New(gateway.Options{ProbeInterval: -1, Obs: obs.NewRegistry()})
	defer g.Close()
	if _, err := g.AddReplica("r0", replica.URL); err != nil {
		t.Fatal(err)
	}
	if n := g.ProbeAll(context.Background()); n != 1 {
		t.Fatalf("eligible replicas = %d, want 1", n)
	}
	proxied := predictAllocsPerRun(t, gateway.NewServer(g).Handler(), body)

	t.Logf("%s: allocs per predict: replica untraced %.0f, traced %.0f; gateway %.0f",
		runtime.Version(), plain, traced, proxied)
	if runtime.Version() != allocsGo || raceBuild() {
		t.Skipf("counts are pinned for %s without -race", allocsGo)
	}
	if plain != untracedAllocs || traced != tracedAllocs || proxied != gatewayAllocs {
		t.Fatalf("allocs per predict = %.0f/%.0f/%.0f (untraced/traced/gateway), pinned %d/%d/%d",
			plain, traced, proxied, untracedAllocs, tracedAllocs, gatewayAllocs)
	}
}

// warmArenas grows every worker's arena to the forward pass's largest
// per-sample scratch, the widest convolution's patch matrix. The pool hands
// out samples dynamically, so a forward pass alone may leave a worker that
// ran no sample of that layer to grow its arena inside a counted run. Here
// each worker runs exactly one callback of each For (the callbacks wait for
// one another), the first For's request overflows the arena and the second
// For's Reset grows it.
func warmArenas(m *nn.Model) {
	floats := 0
	nn.Walk(m.Net, func(l nn.Layer) {
		if c, ok := l.(*nn.Conv2D); ok {
			floats = max(floats, c.Dims.ColRows*c.Dims.Cols)
		}
	})
	ctx := m.Ctx()
	for pass := 0; pass < 2; pass++ {
		var started sync.WaitGroup
		started.Add(ctx.Threads())
		ctx.For(ctx.Threads(), func(_ int, a *compute.Arena) {
			started.Done()
			started.Wait()
			a.Floats(floats)
		})
	}
}

// Enabling obs adds no heap allocation to a forward pass. At two threads
// the pass takes the pool's parallel dispatch even on a one-core host,
// which is where per-dispatch timing could allocate. The collector stays
// off while counting, as in predictAllocsPerRun.
func TestObsForwardAddsNoAllocs(t *testing.T) {
	m, x := benchModel()
	m.SetThreads(2)
	warmArenas(m)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	count := func(on bool) float64 {
		obs.Enable(on)
		defer obs.Enable(false)
		return testing.AllocsPerRun(3, func() { m.Forward(x) })
	}
	off, on := count(false), count(true)
	obs.Default.Reset()
	t.Logf("%s: allocs per forward pass: obs off %.0f, on %.0f", runtime.Version(), off, on)
	if on != off {
		t.Fatalf("enabling obs raised a forward pass's allocations from %.0f to %.0f", off, on)
	}
}

// Command dacgateway fronts a pool of dacserve replicas with one HTTP
// endpoint — the fleet half of the serving subsystem. Requests to
// /v1/predict are routed by consistent hashing on the model name (each
// request goes to the ring candidate with the fewest in flight, so an idle
// pool sends one model's traffic to its owner replica), replicas are
// health-checked continuously (/healthz + /readyz) and ejected from the
// ring the moment they go down or start draining, and transient failures
// get one retry on the next ring candidate:
//
//	dacgateway -listen :8090 -replica r0=http://127.0.0.1:8080 -replica r1=http://127.0.0.1:8081
//
//	curl -d '{"model":"prod","input":[...]}' localhost:8090/v1/predict
//	curl localhost:8090/v1/models          # fleet-wide digest consistency
//	curl localhost:8090/statsz             # per-replica state and counters
//
// With -assign name=digest the gateway advertises which release every
// replica should serve; POST /v1/models/{name}:reload rolls the fleet onto
// a new digest one replica at a time (cordon, drain, push, uncordon) with
// zero dropped requests, provided replicas share an artifact store
// (dacserve -store) holding the published release (dacrelease -store).
//
// Every predict gets a 128-bit trace ID propagated to the replica in
// X-Dac-Trace; GET /tracez shows recent/slowest/error traces with routing
// and per-attempt spans, -access-log writes one JSON line per request, and
// -pprof exposes net/http/pprof under /debug/pprof/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/obs"
)

// replicaFlags collects repeated -replica [name=]url pairs in order; a
// bare url is named rN by position.
type replicaFlags []struct{ id, url string }

func (r *replicaFlags) String() string { return fmt.Sprintf("%d replicas", len(*r)) }

func (r *replicaFlags) Set(v string) error {
	id, url, ok := strings.Cut(v, "=")
	if !ok {
		id, url = fmt.Sprintf("r%d", len(*r)), v
	}
	if id == "" || url == "" {
		return fmt.Errorf("want [name=]url, got %q", v)
	}
	*r = append(*r, struct{ id, url string }{id, url})
	return nil
}

// assignFlags collects repeated -assign model=digest pairs.
type assignFlags []struct{ model, digest string }

func (a *assignFlags) String() string { return fmt.Sprintf("%d assignments", len(*a)) }

func (a *assignFlags) Set(v string) error {
	model, digest, ok := strings.Cut(v, "=")
	if !ok || model == "" || digest == "" {
		return fmt.Errorf("want model=digest, got %q", v)
	}
	*a = append(*a, struct{ model, digest string }{model, digest})
	return nil
}

func main() {
	var replicas replicaFlags
	var assigns assignFlags
	flag.Var(&replicas, "replica", "dacserve replica as [name=]url (repeatable)")
	flag.Var(&assigns, "assign", "advertised release as model=digest (repeatable; /v1/models checks the fleet against it)")
	listen := flag.String("listen", ":8090", "HTTP listen address")
	probeEvery := flag.Duration("probe-interval", 2*time.Second, "active health-check period")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "timeout for one /healthz + /readyz probe pair")
	failAfter := flag.Int("fail-after", 2, "consecutive failures before a replica is marked down")
	reviveAfter := flag.Int("revive-after", 2, "consecutive ready probes before a down replica rejoins")
	maxInflight := flag.Int("max-inflight", 256, "hard per-replica in-flight cap; requests are shed with 503 when every candidate is at it")
	retryBackoff := flag.Duration("retry-backoff", 25*time.Millisecond, "pause before the single retry on another replica")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "timeout for one proxied predict attempt")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (opt-in)")
	accessLog := flag.String("access-log", "", `structured JSON access log destination: "-" for stdout, else a file to append to`)
	flag.Parse()
	if len(replicas) == 0 {
		fatal(errors.New("at least one -replica url is required"))
	}

	logW, err := obs.OpenAccessLog(*accessLog)
	if err != nil {
		fatal(err)
	}
	g := gateway.New(gateway.Options{
		ProbeInterval:  *probeEvery,
		ProbeTimeout:   *probeTimeout,
		FailAfter:      *failAfter,
		ReviveAfter:    *reviveAfter,
		MaxInflight:    *maxInflight,
		RetryBackoff:   *retryBackoff,
		RequestTimeout: *reqTimeout,
		Obs:            obs.NewRegistry(), // the gateway's own metrics instance
		AccessLog:      logW,
	})
	for _, r := range replicas {
		if _, err := g.AddReplica(r.id, r.url); err != nil {
			fatal(err)
		}
		fmt.Printf("replica %s at %s\n", r.id, r.url)
	}
	for _, a := range assigns {
		g.SetAssignment(a.model, a.digest)
		fmt.Printf("assignment: %s -> %s\n", a.model, a.digest)
	}

	// One synchronous probe pass before accepting traffic, so the first
	// request already routes over real health state.
	ctx, cancel := context.WithTimeout(context.Background(), *probeTimeout+time.Second)
	eligible := g.ProbeAll(ctx)
	cancel()
	fmt.Printf("initial probe: %d/%d replicas ready\n", eligible, len(replicas))
	g.Start()

	mux := http.NewServeMux()
	mux.Handle("/", gateway.NewServer(g).Handler())
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Printf("pprof enabled at %s/debug/pprof/\n", *listen)
	}
	srv := &http.Server{Addr: *listen, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("gateway over %d replica(s) on %s\n", len(replicas), *listen)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Printf("received %s, draining\n", sig)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "dacgateway: shutdown:", err)
	}
	g.Close() // stop the prober
	fmt.Println("bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dacgateway:", err)
	os.Exit(1)
}

// Command dacserve puts released model files behind the serving subsystem's
// HTTP API — the deployment half of the threat model. A provider that
// received a model from an outside trainer can serve predictions from it
// (micro-batched across concurrent clients, bit-identical to an offline
// forward pass) and audit it in place for embedded training data:
//
//	dacserve -listen :8080 -model prod=released.bin -model canary=other.bin
//
//	curl -d '{"model":"prod","input":[...]}' localhost:8080/v1/predict
//	curl -X POST localhost:8080/v1/models/prod:audit
//	curl localhost:8080/metricsz        # Prometheus text exposition
//
// -models dir serves every released model in dir, recognized by its magic
// header, under its file name (extension stripped); every other file is
// reported and skipped, so one directory can mix full-precision and
// quantized releases. -native serves quantized releases codebook-native:
// forward passes read the released codebooks and uint8 indices through LUT
// kernels instead of materialized float weights — bit-identical
// predictions, strictly lower resident memory.
//
// -pprof additionally exposes net/http/pprof under /debug/pprof/, and -obs
// turns on the deep runtime instrumentation (compute pool timings). Every
// predict is traced (adopting the gateway's X-Dac-Trace ID when fronted):
// GET /tracez shows recent/slowest/error traces with queue/compute spans,
// and -access-log writes one JSON line per request.
//
// With -store the replica attaches an artifact store of published releases
// (dacrelease -store): -pull name=digest loads models from it at startup,
// and POST /v1/models/{name}:load pulls by digest at runtime — how a
// dacgateway rolls a fleet onto new weights. The listener starts before
// any model loads; /readyz answers 503 "starting" until they finish, then
// 200, so a gateway never routes to a replica mid-startup.
//
// Shutdown on SIGINT/SIGTERM is graceful and gateway-aware: /readyz flips
// to 503 "draining" first, the process lingers -drain-grace so health
// probes observe the drain and eject the replica from routing, then the
// listener stops accepting, in-flight requests drain through final batched
// passes, and the process exits.
package main

import (
	"context"
	"encoding/json"
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

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// modelFlags collects repeated -model name=path pairs in order.
type modelFlags []struct{ name, path string }

func (m *modelFlags) String() string { return fmt.Sprintf("%d models", len(*m)) }

func (m *modelFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*m = append(*m, struct{ name, path string }{name, path})
	return nil
}

// policyFlags collects repeated -policy name=JSON pairs in order.
type policyFlags []struct{ name, spec string }

func (p *policyFlags) String() string { return fmt.Sprintf("%d policies", len(*p)) }

func (p *policyFlags) Set(v string) error {
	name, spec, ok := strings.Cut(v, "=")
	if !ok || name == "" || spec == "" {
		return fmt.Errorf(`want name={"mode":...}, got %q`, v)
	}
	*p = append(*p, struct{ name, spec string }{name, spec})
	return nil
}

// pullFlags collects repeated -pull name=digest pairs in order.
type pullFlags []struct{ name, digest string }

func (p *pullFlags) String() string { return fmt.Sprintf("%d pulls", len(*p)) }

func (p *pullFlags) Set(v string) error {
	name, digest, ok := strings.Cut(v, "=")
	if !ok || name == "" || digest == "" {
		return fmt.Errorf("want name=digest, got %q", v)
	}
	*p = append(*p, struct{ name, digest string }{name, digest})
	return nil
}

func main() {
	preset := core.CIFARRelease()
	var models modelFlags
	var pulls pullFlags
	var policies policyFlags
	flag.Var(&models, "model", "model to serve as name=path (repeatable)")
	flag.Var(&pulls, "pull", "model to pull from -store as name=digest (repeatable)")
	flag.Var(&policies, "policy", `serving defense policy as name={"mode":"top1","round":2,"query_budget":500} (repeatable; also settable at runtime via POST /v1/models/{name}:policy)`)
	modelsDir := flag.String("models", "", "directory of released models; files are sniffed by header, served under file name minus extension")
	storeDir := flag.String("store", "", "artifact store of published releases; enables -pull and the :load endpoint (digest-based distribution)")
	native := flag.Bool("native", false, "serve quantized releases codebook-native (LUT kernels over released indices; bit-identical, lower resident memory)")
	listen := flag.String("listen", ":8080", "HTTP listen address")
	maxBatch := flag.Int("max-batch", 16, "max samples coalesced into one forward pass")
	queue := flag.Int("queue", 256, "per-model queue depth in samples (backpressure bound: a request that does not fit gets 429)")
	threads := flag.Int("threads", 0, "worker threads per model engine (0 = all cores)")
	bounds := flag.String("bounds", preset.BoundsCSV(), "default conv-index group bounds for the audit endpoint")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (opt-in)")
	obsOn := flag.Bool("obs", false, "enable deep runtime instrumentation (compute pool timings) in /metricsz")
	accessLog := flag.String("access-log", "", `structured JSON access log destination: "-" for stdout, else a file to append to`)
	drainGrace := flag.Duration("drain-grace", 3*time.Second, "how long /readyz advertises draining before the listener stops (lets gateways eject this replica first)")
	flag.Parse()
	if len(models) == 0 && *modelsDir == "" && len(pulls) == 0 && *storeDir == "" {
		fatal(errors.New("at least one -model name=path, a -models dir, a -store (models pushed later via :load), or a -pull name=digest is required"))
	}
	if len(pulls) > 0 && *storeDir == "" {
		fatal(errors.New("-pull requires -store"))
	}

	var store *artifact.Store
	if *storeDir != "" {
		var err error
		if store, err = artifact.Open(*storeDir); err != nil {
			fatal(err)
		}
	}
	gb, err := parseInts(*bounds)
	if err != nil {
		fatal(fmt.Errorf("bad -bounds: %w", err))
	}
	reg := serve.NewRegistry(serve.Options{
		MaxBatch:    *maxBatch,
		QueueDepth:  *queue,
		Threads:     *threads,
		NativeQuant: *native,
		Store:       store,
	})
	// Start the listener before any model loads: /healthz and /readyz
	// answer immediately (readyz says "starting"), so a fronting gateway
	// can watch this replica come up instead of timing out on it.
	obs.Enable(*obsOn)
	api := serve.NewServer(reg, gb)
	if w, err := obs.OpenAccessLog(*accessLog); err != nil {
		fatal(err)
	} else if w != nil {
		api.SetAccessLog(w)
	}
	mux := http.NewServeMux()
	mux.Handle("/", api.Handler())
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

	loaded := 0
	announce := func(en *serve.Entry) {
		kind := "full-precision"
		switch {
		case en.Native:
			kind = "quantized (codebook-native)"
		case en.Quantized:
			kind = "quantized"
		}
		fmt.Printf("loaded %q: %s, %d params, %d bytes on disk, %d bytes resident (sha256 %s)\n",
			en.Name, kind, en.Params, en.Size.TotalBytes(), en.ResidentBytes(), en.Digest[:12])
		loaded++
	}
	if *modelsDir != "" {
		entries, skipped, err := reg.LoadDir(*modelsDir, serve.ModeAuto)
		if err != nil {
			fatal(err)
		}
		for _, en := range entries {
			announce(en)
		}
		for _, sk := range skipped {
			fmt.Printf("skipped %s: %s\n", sk.Path, sk.Reason)
		}
	}
	for _, m := range models {
		en, err := reg.LoadFile(m.name, m.path)
		if err != nil {
			fatal(err)
		}
		announce(en)
	}
	for _, p := range pulls {
		en, err := reg.LoadDigest(p.name, p.digest, serve.ModeAuto)
		if err != nil {
			fatal(err)
		}
		announce(en)
	}
	for _, pf := range policies {
		var pol serve.Policy
		if err := json.Unmarshal([]byte(pf.spec), &pol); err != nil {
			fatal(fmt.Errorf("bad -policy %s: %w", pf.name, err))
		}
		if err := reg.SetPolicy(pf.name, pol); err != nil {
			fatal(fmt.Errorf("bad -policy %s: %w", pf.name, err))
		}
		fmt.Printf("policy %q: mode=%s round=%d query_budget=%d\n", pf.name, pol.Mode, pol.Round, pol.QueryBudget)
	}
	api.SetReady()
	fmt.Printf("serving %d model(s) on %s (ready)\n", loaded, *listen)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Printf("received %s, draining\n", sig)
	}

	// Advertise the drain on /readyz first and linger, so gateway probes
	// eject this replica from routing while it still answers everything —
	// the zero-lost-requests half of a rolling restart.
	api.StartDrain()
	time.Sleep(*drainGrace)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "dacserve: shutdown:", err)
	}
	reg.Close() // answer anything already queued, then stop the engines
	fmt.Println("bye")
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &v); err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dacserve:", err)
	os.Exit(1)
}

// Package gateway fronts a pool of dacserve replicas with one HTTP
// endpoint — the horizontal scale-out layer of the serving stack. One
// dacserve process is a throughput ceiling; the gateway turns N of them
// into a fleet:
//
//   - Routing is a consistent-hash ring keyed by model name (an idle
//     pool sends each model's traffic to its owner replica; a request goes
//     to the ring candidate with the fewest requests in flight, ring order
//     breaking ties), over only the replicas a health state machine
//     currently believes are ready.
//   - Health is probed actively (periodic GET /healthz + /readyz) and
//     marked passively (transport failures on proxied requests count like
//     failed probes). A replica that answers /readyz with 503 is draining:
//     it leaves the ring immediately — before SIGTERM kills it — so
//     rolling restarts lose zero requests.
//   - Overload is shed: requests are retried once (with backoff) across
//     ring order on 429/5xx, and answered 503 at the gateway when every
//     candidate is at its in-flight cap.
//   - Model distribution is digest-based: the gateway advertises
//     {name → digest} assignments and rolls them out replica by replica
//     through the /v1/models/{name}:load endpoint, each replica pulling
//     the release from the shared content-addressed artifact store. Every
//     replica provably serves byte-identical weights, and the aggregated
//     /v1/models answer reports fleet-wide digest consistency.
//
// The gateway holds no model state itself; it is a routing and health
// layer over the serve package's per-replica registries.
package gateway

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// Options configure a Gateway.
type Options struct {
	// ProbeInterval is the active health-check period. <= 0 disables the
	// background prober: probes then run only through ProbeAll, which is
	// what deterministic tests use.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz + /readyz probe pair. 0 selects 2s.
	ProbeTimeout time.Duration
	// FailAfter is how many consecutive failures (probe or passive) mark a
	// replica Down. 0 selects 2.
	FailAfter int
	// ReviveAfter is how many consecutive ready probes bring a Down
	// replica back. 0 selects 2.
	ReviveAfter int
	// MaxInflight is the hard per-replica in-flight cap; when every
	// candidate is at it, the request is shed with 503. 0 selects 256.
	MaxInflight int
	// RetryBackoff is the pause before the single retry. 0 selects 25ms;
	// negative disables the pause (tests).
	RetryBackoff time.Duration
	// RequestTimeout bounds one proxied predict attempt. 0 selects 30s.
	RequestTimeout time.Duration
	// Client is the HTTP client used for probes and proxying. nil selects
	// a default client (connection pooling on, no global timeout — the
	// per-attempt contexts bound every call).
	Client *http.Client
	// Obs is the registry gateway metrics are published to — the gateway
	// runs its own obs instance, exposed at its /metricsz. nil selects
	// obs.Default.
	Obs *obs.Registry
	// AccessLog, when non-nil, receives one structured JSON line per
	// completed predict (a TraceRecord without spans).
	AccessLog io.Writer
}

func (o Options) withDefaults() Options {
	if o.ProbeTimeout == 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 2
	}
	if o.ReviveAfter <= 0 {
		o.ReviveAfter = 2
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 256
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 25 * time.Millisecond
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.Obs == nil {
		o.Obs = obs.Default
	}
	return o
}

// Gateway routes /v1/predict across a replica pool. Create with New, add
// replicas with AddReplica, then Start the prober (or drive ProbeAll
// manually). Safe for concurrent use.
type Gateway struct {
	opts Options

	mu          sync.RWMutex
	replicas    []*Replica
	ring        *ring
	assignments map[string]string // model name → release digest
	// budgets holds per-model query budgets learned from :policy
	// pass-through, enforced at the edge through budget so an extraction
	// client exhausts its allowance without ever reaching a replica.
	budgets map[string]int
	budget  *api.BudgetLedger

	// Gateway-level metrics (fresh instances on opts.Obs).
	requests   *obs.Counter // predict requests entering the gateway
	retries    *obs.Counter // second attempts after 429/5xx/transport error
	sheds      *obs.Counter // requests answered 503 for lack of capacity
	noReplica  *obs.Counter // requests with an empty ring
	generation *obs.Gauge   // ring generation (bumped on every rebuild)
	eligibleG  *obs.Gauge   // replicas currently on the ring

	stop, done chan struct{}
	startOnce  sync.Once
	closeOnce  sync.Once
}

// New builds a gateway with no replicas and an empty ring.
func New(opts Options) *Gateway {
	opts = opts.withDefaults()
	g := &Gateway{
		opts:        opts,
		ring:        buildRing(nil),
		assignments: map[string]string{},
		budgets:     map[string]int{},
		budget:      api.NewBudgetLedger(),
		requests:    obs.NewCounter(),
		retries:     obs.NewCounter(),
		sheds:       obs.NewCounter(),
		noReplica:   obs.NewCounter(),
		generation:  obs.NewGauge(),
		eligibleG:   obs.NewGauge(),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	for name, c := range map[string]*obs.Counter{
		"gateway_predict_requests_total": g.requests,
		"gateway_retries_total":          g.retries,
		"gateway_sheds_total":            g.sheds,
		"gateway_no_replica_total":       g.noReplica,
	} {
		opts.Obs.RegisterCounter(name, c)
	}
	opts.Obs.RegisterGauge("gateway_ring_generation", g.generation)
	opts.Obs.RegisterGauge("gateway_replicas_eligible", g.eligibleG)
	return g
}

// AddReplica registers a replica under a stable id. Replicas start in
// StateUnknown — off the ring until a probe sees them ready.
func (g *Gateway) AddReplica(id, baseURL string) (*Replica, error) {
	if id == "" || baseURL == "" {
		return nil, fmt.Errorf("gateway: replica id and base URL must be non-empty")
	}
	r := &Replica{
		ID:       id,
		BaseURL:  baseURL,
		gw:       g,
		requests: obs.NewCounter(),
		errors:   obs.NewCounter(),
		probeLat: obs.NewHistogram(obs.ExpBuckets(0.0005, 2, 12)),
	}
	lbl := obs.SeriesName("", "replica", id)
	g.opts.Obs.RegisterCounter("gateway_replica_requests_total"+lbl, r.requests)
	g.opts.Obs.RegisterCounter("gateway_replica_errors_total"+lbl, r.errors)
	g.opts.Obs.RegisterHistogram("gateway_probe_latency_seconds"+lbl, r.probeLat)
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, prev := range g.replicas {
		if prev.ID == id {
			return nil, fmt.Errorf("gateway: duplicate replica id %q", id)
		}
	}
	g.replicas = append(g.replicas, r)
	return r, nil
}

// Replicas returns the pool in registration order.
func (g *Gateway) Replicas() []*Replica {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]*Replica(nil), g.replicas...)
}

// rebuild reconstructs the ring from the currently eligible replicas and
// bumps the ring generation. Called on every eligibility change (probe
// transition, passive failure, cordon/uncordon).
func (g *Gateway) rebuild() {
	g.mu.Lock()
	defer g.mu.Unlock()
	members := make([]*Replica, 0, len(g.replicas))
	for _, r := range g.replicas {
		if r.eligible() {
			members = append(members, r)
		}
	}
	g.ring = buildRing(members)
	g.generation.Add(1)
	g.eligibleG.Set(float64(len(members)))
}

// currentRing returns the ring snapshot routing uses.
func (g *Gateway) currentRing() *ring {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.ring
}

// Generation returns the current ring generation.
func (g *Gateway) Generation() int64 { return int64(g.generation.Value()) }

// ProbeAll probes every replica concurrently, applies the outcomes to the
// state machines, and rebuilds the ring if any eligibility changed. It
// returns the number of replicas currently eligible. The background prober
// calls this every ProbeInterval; tests and startup call it directly.
func (g *Gateway) ProbeAll(ctx context.Context) int {
	reps := g.Replicas()
	changed := make([]bool, len(reps))
	var wg sync.WaitGroup
	for i, r := range reps {
		wg.Add(1)
		go func(i int, r *Replica) {
			defer wg.Done()
			_, changed[i] = r.probe(ctx)
		}(i, r)
	}
	wg.Wait()
	for _, c := range changed {
		if c {
			g.rebuild()
			break
		}
	}
	n := 0
	for _, r := range reps {
		if r.eligible() {
			n++
		}
	}
	return n
}

// Start launches the background prober (a no-op when ProbeInterval <= 0).
func (g *Gateway) Start() {
	g.startOnce.Do(func() {
		if g.opts.ProbeInterval <= 0 {
			close(g.done)
			return
		}
		go func() {
			defer close(g.done)
			t := time.NewTicker(g.opts.ProbeInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					g.ProbeAll(context.Background())
				case <-g.stop:
					return
				}
			}
		}()
	})
}

// Close stops the background prober. Safe to call more than once; a
// gateway that was never started closes immediately.
func (g *Gateway) Close() {
	g.startOnce.Do(func() { close(g.done) })
	g.closeOnce.Do(func() { close(g.stop) })
	<-g.done
}

// pick routes to the ring candidate with the fewest requests in flight
// among those under the hard MaxInflight cap, ring order breaking ties: an
// idle pool sends each model to its owner, and a busy owner yields. nil
// means shed: every candidate is saturated. skip removes an
// already-attempted replica (retry).
func (g *Gateway) pick(cands []*Replica, skip *Replica) *Replica {
	var best *Replica
	least := int64(g.opts.MaxInflight)
	for _, c := range cands {
		if n := c.inflight.Load(); c != skip && n < least {
			best, least = c, n
		}
	}
	return best
}

// SetAssignment records (or, with digest == "", clears) the advertised
// release digest for a model name. Assignments are what /v1/assignments
// serves and what the fleet-consistency check in /v1/models compares
// against; RollingReload sets them before distributing.
func (g *Gateway) SetAssignment(name, digest string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if digest == "" {
		delete(g.assignments, name)
		return
	}
	g.assignments[name] = digest
}

// setEdgeBudget records (or, with budget <= 0, clears) the per-client
// query budget the gateway enforces at the edge for model, re-arming every
// client's spend — called after a :policy set fans out, so edge and
// replica budgets restart together.
func (g *Gateway) setEdgeBudget(model string, budget int) {
	g.mu.Lock()
	if budget <= 0 {
		delete(g.budgets, model)
	} else {
		g.budgets[model] = budget
	}
	g.mu.Unlock()
	g.budget.Reset(model)
}

// edgeBudget returns the edge-enforced query budget for model (0 = none).
func (g *Gateway) edgeBudget(model string) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.budgets[model]
}

// Assignments returns a copy of the advertised {model name → digest} map.
func (g *Gateway) Assignments() map[string]string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make(map[string]string, len(g.assignments))
	for k, v := range g.assignments {
		out[k] = v
	}
	return out
}

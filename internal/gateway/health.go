package gateway

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// State is a replica's position in the health state machine.
//
//	            ok probe                    FailAfter consecutive failures
//	Unknown ─────────────▶ Healthy ────────────────────────────▶ Down
//	                        ▲   │ readyz 503                      │
//	           ok probe     │   ▼                                 │
//	                        └─ Draining ◀── (readyz 503 from any) │
//	                        ▲                                     │
//	                        └──── ReviveAfter consecutive oks ────┘
//
// Healthy is the only state eligible for the ring. Draining is entered
// immediately on a ready-probe 503 (the replica's own declaration is
// authoritative — no threshold), and left the moment a probe sees ready
// again. Down requires FailAfter consecutive failures so one lost probe
// does not eject a replica, and ReviveAfter consecutive successes so a
// flapping replica does not bounce in and out of the ring.
type State int32

const (
	// StateUnknown is the initial state before any probe has answered.
	StateUnknown State = iota
	// StateHealthy replicas are on the ring and receive traffic.
	StateHealthy
	// StateDraining replicas answered /readyz with 503: alive, finishing
	// in-flight work, and about to go away. Off the ring, not counted as
	// failed.
	StateDraining
	// StateDown replicas failed FailAfter consecutive probes (active or
	// passive). Off the ring; probes keep running so they can revive.
	StateDown
)

func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDraining:
		return "draining"
	case StateDown:
		return "down"
	default:
		return "unknown"
	}
}

// probe outcomes feeding the state machine.
type outcome int

const (
	outcomeReady    outcome = iota // healthz ok, readyz ok
	outcomeDraining                // healthz ok, readyz 503
	outcomeFail                    // probe failed, or a passive transport failure
)

// Replica is one dacserve process behind the gateway: its address, health
// state, in-flight request count (the routing signal), and per-replica
// serving counters.
type Replica struct {
	// ID is the replica's stable name — the consistent-hash ring hashes it,
	// so the same ID always lands on the same ring points.
	ID string
	// BaseURL is the replica's HTTP root, e.g. "http://10.0.0.3:8080".
	BaseURL string

	gw *Gateway

	// inflight counts requests currently proxied to this replica; the
	// least-in-flight pick and the rolling-reload drain wait both read it.
	inflight atomic.Int64

	mu       sync.Mutex
	state    State
	cordoned bool
	fails    int // consecutive probe/passive failures
	oks      int // consecutive ready probes
	lastErr  string
	probeMS  float64 // last probe round-trip, milliseconds

	// requests/errors/sheds are per-replica obs counters (fresh instances,
	// registered under replica-labeled names on the gateway's registry).
	requests *obs.Counter
	errors   *obs.Counter
	probeLat *obs.Histogram
}

// State returns the replica's current health state.
func (r *Replica) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Inflight returns the number of requests currently proxied to the replica.
func (r *Replica) Inflight() int { return int(r.inflight.Load()) }

// eligible reports whether the replica belongs on the ring.
func (r *Replica) eligible() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state == StateHealthy && !r.cordoned
}

// setCordon marks the replica administratively off the ring (rolling
// reload) without touching its health state, and reports whether the flag
// changed.
func (r *Replica) setCordon(on bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cordoned == on {
		return false
	}
	r.cordoned = on
	return true
}

// observe feeds one probe outcome (or passive failure) into the state
// machine and reports whether ring eligibility changed.
func (r *Replica) observe(o outcome, errMsg string, failAfter, reviveAfter int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	was := r.state == StateHealthy && !r.cordoned
	switch o {
	case outcomeFail:
		r.oks = 0
		r.fails++
		r.lastErr = errMsg
		if r.fails >= failAfter {
			r.state = StateDown
		}
	case outcomeDraining:
		r.fails, r.oks = 0, 0
		r.lastErr = ""
		r.state = StateDraining
	case outcomeReady:
		need := 1
		if r.state == StateDown {
			need = reviveAfter
		}
		r.fails = 0
		r.oks++
		r.lastErr = ""
		if r.oks >= need {
			r.state = StateHealthy
		}
	}
	return was != (r.state == StateHealthy && !r.cordoned)
}

// noteFailure is passive failure marking: a proxied request hit a
// transport-level error, which counts like a failed probe (the gateway
// does not wait for the next probe period to stop routing to a dead
// replica). Rebuilds the ring if the state flipped.
func (r *Replica) noteFailure(err error) {
	if r.observe(outcomeFail, err.Error(), r.gw.opts.FailAfter, r.gw.opts.ReviveAfter) {
		r.gw.rebuild()
	}
}

// probe runs one active health check: GET /healthz (liveness), then GET
// /readyz (readiness). It returns the outcome it fed to the FSM and
// whether ring eligibility changed.
func (r *Replica) probe(ctx context.Context) (outcome, bool) {
	start := time.Now()
	o, errMsg := r.probeOnce(ctx)
	lat := time.Since(start)
	r.probeLat.Observe(lat.Seconds())
	r.mu.Lock()
	r.probeMS = float64(lat.Microseconds()) / 1e3
	r.mu.Unlock()
	return o, r.observe(o, errMsg, r.gw.opts.FailAfter, r.gw.opts.ReviveAfter)
}

func (r *Replica) probeOnce(ctx context.Context) (outcome, string) {
	ctx, cancel := context.WithTimeout(ctx, r.gw.opts.ProbeTimeout)
	defer cancel()
	status, err := r.getStatus(ctx, "/healthz")
	if err != nil {
		return outcomeFail, err.Error()
	}
	if status != http.StatusOK {
		return outcomeFail, fmt.Sprintf("healthz status %d", status)
	}
	status, err = r.getStatus(ctx, "/readyz")
	if err != nil {
		return outcomeFail, err.Error()
	}
	switch status {
	case http.StatusOK:
		return outcomeReady, ""
	case http.StatusServiceUnavailable:
		return outcomeDraining, ""
	default:
		return outcomeFail, fmt.Sprintf("readyz status %d", status)
	}
}

func (r *Replica) getStatus(ctx context.Context, path string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.BaseURL+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := r.gw.opts.Client.Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// replicaSnapshot is the /statsz view of one replica.
type replicaSnapshot struct {
	BaseURL  string  `json:"base_url"`
	State    string  `json:"state"`
	Cordoned bool    `json:"cordoned,omitempty"`
	Inflight int     `json:"inflight"`
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors,omitempty"`
	ProbeMS  float64 `json:"probe_ms"`
	LastErr  string  `json:"last_error,omitempty"`
}

func (r *Replica) snapshot() replicaSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return replicaSnapshot{
		BaseURL:  r.BaseURL,
		State:    r.state.String(),
		Cordoned: r.cordoned,
		Inflight: int(r.inflight.Load()),
		Requests: r.requests.Value(),
		Errors:   r.errors.Value(),
		ProbeMS:  r.probeMS,
		LastErr:  r.lastErr,
	}
}

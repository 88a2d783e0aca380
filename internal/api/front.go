package api

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Front is the HTTP plumbing the replica and the gateway share: the route
// table, the root handler, model-op dispatch, the /tracez and /metricsz
// handlers, and the predict lifecycle (Begin, Call.Fail, Call.Finish).
// Each server registers its own routes, in its own order, and keeps only
// the handlers that differ. Metric names carry the tier prefix ("serve" or
// "gateway"):
//
//	<tier>_http_requests_total       every HTTP request, any endpoint
//	<tier>_client_requests_total     predicts per client
//	<tier>_client_errors_total       failed predicts per client
//	<tier>_client_latency_seconds    traced predict latency per client
//
// The per-client series cap at obs.DefaultMaxLabelValues clients, later
// ones collapsing into obs.OverflowLabel. They are get-or-create on the
// registry, so two fronts on one registry share them.
type Front struct {
	mux *http.ServeMux
	// routes lists the registered patterns in order: ServeMux does not
	// expose them, and the route-inventory goldens pin them.
	routes []string
	reg    *obs.Registry
	// httpRequests is a fresh instance per front, registered with replace
	// semantics (like engine series).
	httpRequests *obs.Counter

	// tracing gates trace construction on predict (on by default). Off,
	// Begin hands out nil traces and only the client counts go on.
	tracing atomic.Bool
	// Now is the trace clock; nil selects time.Now. Tests inject a fake
	// one for deterministic /tracez goldens.
	Now        func() time.Time
	traces     *obs.TraceBuffer
	accessLog  *obs.AccessLogger
	clientReqs *obs.CounterVec
	clientErrs *obs.CounterVec
	clientLat  *obs.HistogramVec
}

// NewFront builds a front publishing its metrics on reg under the tier
// prefix, with tracing on and no routes.
func NewFront(reg *obs.Registry, tier string) *Front {
	f := &Front{
		mux:          http.NewServeMux(),
		reg:          reg,
		httpRequests: obs.NewCounter(),
		traces:       obs.NewTraceBuffer(0, 0, 0),
		clientReqs:   obs.NewCounterVec(reg, tier+"_client_requests_total", "client", 0),
		clientErrs:   obs.NewCounterVec(reg, tier+"_client_errors_total", "client", 0),
		clientLat:    obs.NewHistogramVec(reg, tier+"_client_latency_seconds", "client", 0, obs.ExpBuckets(0.0005, 2, 12)),
	}
	f.tracing.Store(true)
	reg.RegisterCounter(tier+"_http_requests_total", f.httpRequests)
	return f
}

// Handle registers pattern on the mux and records it for Routes.
func (f *Front) Handle(pattern string, h http.HandlerFunc) {
	f.routes = append(f.routes, pattern)
	f.mux.HandleFunc(pattern, h)
}

// HandleModelOps registers POST /v1/models/{nameop}, dispatching each
// {name}:{op} through ops with DispatchModelOp — one path convention and
// parser on both tiers, so fleet and replica admin verbs read alike.
func (f *Front) HandleModelOps(ops map[string]ModelOpHandler) {
	f.Handle("POST /v1/models/{nameop}", func(w http.ResponseWriter, r *http.Request) {
		DispatchModelOp(w, r, r.PathValue("nameop"), ops)
	})
}

// Routes returns every registered mux pattern in registration order — the
// server's whole HTTP surface, which the route-inventory goldens pin.
func (f *Front) Routes() []string {
	return append([]string(nil), f.routes...)
}

// Handler returns the root handler. It counts every request and bounds
// every request body at MaxBodyBytes, so a direct client cannot make the
// replica buffer more than the gateway would forward; an oversize body
// fails its read or JSON decode and answers 400.
func (f *Front) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.httpRequests.Inc()
		r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
		f.mux.ServeHTTP(w, r)
	})
}

// HTTPRequests returns the number of requests the root handler has seen.
func (f *Front) HTTPRequests() int64 { return f.httpRequests.Value() }

// EnableTracing toggles per-request trace construction (on by default).
func (f *Front) EnableTracing(on bool) { f.tracing.Store(on) }

// SetAccessLog directs one structured JSON line per completed traced
// predict to w (nil disables). Lines are TraceRecords without spans.
func (f *Front) SetAccessLog(w io.Writer) { f.accessLog = obs.NewAccessLogger(w) }

// Traces returns the completed-trace buffer (what /tracez serves).
func (f *Front) Traces() *obs.TraceBuffer { return f.traces }

// HandleTraces serves GET /tracez: recent, slowest and error traces.
func (f *Front) HandleTraces(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, f.traces.Snapshot())
}

// HandleMetrics serves GET /metricsz: the whole obs registry in the
// Prometheus text format, or as a JSON snapshot with ?format=json.
func (f *Front) HandleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		f.reg.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	f.reg.WritePrometheus(w)
}

// Call is one in-flight predict. Keep it on the handler's stack: a heap
// copy would cost an allocation per request.
type Call struct {
	f *Front
	w http.ResponseWriter
	// Client is the accounting client ID (X-Dac-Client, else the peer).
	Client string
	// Trace is nil while tracing is off; RequestTrace methods no-op on nil.
	Trace *obs.RequestTrace
}

// Begin opens a predict call answering on w. When tracing, it adopts the
// trace ID and hop label of the request's X-Dac-Trace header — a malformed
// or absent header mints a fresh trace, so a direct call is traced too —
// and echoes the ID in the X-Dac-Trace header of whatever answer follows.
func (f *Front) Begin(w http.ResponseWriter, r *http.Request) Call {
	c := Call{f: f, w: w, Client: obs.ClientFrom(r.Header.Get(obs.HeaderClient), r.RemoteAddr)}
	if f.tracing.Load() {
		id, hop, _ := obs.ParseTraceHeader(r.Header.Get(obs.HeaderTrace))
		c.Trace = obs.NewRequestTrace(id, f.Now)
		c.Trace.SetClient(c.Client)
		c.Trace.SetHop(hop)
		w.Header().Set(obs.HeaderTrace, c.Trace.ID().String())
	}
	return c
}

// Fail answers the call with the error envelope, carrying the trace ID
// when traced, and finishes it.
func (c *Call) Fail(status int, code, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	WriteError(c.w, status, code, c.w.Header().Get(obs.HeaderTrace), "%s", msg)
	c.Finish(status, msg)
}

// Finish closes the call once its response is written: the client counts
// always, then — when tracing — the client latency, the trace buffer and
// the access log get the finished record.
func (c *Call) Finish(status int, errMsg string) {
	f := c.f
	f.clientReqs.Get(c.Client).Inc()
	if status >= 400 {
		f.clientErrs.Get(c.Client).Inc()
	}
	if c.Trace == nil {
		return
	}
	rec := c.Trace.Finish(status, errMsg)
	f.clientLat.Observe(c.Client, float64(rec.DurMicros)/1e6)
	f.traces.Add(rec)
	f.accessLog.Log(rec)
}

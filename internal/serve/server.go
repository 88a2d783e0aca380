package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/attack"
	"repro/internal/obs"
)

// Server exposes a Registry over the versioned /v1 HTTP JSON API (schema
// in package api):
//
//	POST /v1/predict               single or batch prediction
//	GET  /v1/models                registered models and their metadata
//	POST /v1/models/{name}:audit   defender-side distributional audit
//	POST /v1/models/{name}:load    pull a release from the artifact store
//	                               by digest and (hot-)register it
//	POST /v1/models/{name}:policy  get (empty body) or set the model's
//	                               serving defense policy
//	GET  /healthz                  liveness
//	GET  /readyz                   readiness (503 while starting/draining)
//	GET  /statsz                   serving counters (JSON)
//	GET  /tracez                   recent/slowest/error request traces (JSON)
//	GET  /detectz                  extraction-pattern detector report (JSON)
//	GET  /metricsz                 full obs registry (Prometheus text;
//	                               ?format=json for the JSON snapshot)
type Server struct {
	reg *Registry
	// auditBounds are the default conv-index group bounds the audit
	// endpoint partitions weights with (the adversary-side constant from
	// the shared preset); requests may override them.
	auditBounds []int
	mux         *http.ServeMux
	// routes records every registered mux pattern, in registration order —
	// ServeMux does not expose its patterns, and the route-inventory golden
	// needs the full surface.
	routes []string
	// ops is the model-operation dispatch table POST /v1/models/{nameop}
	// resolves against.
	ops map[string]api.ModelOpHandler
	// detector watches per-client query volume and input novelty for
	// extraction-like traffic (GET /detectz).
	detector *Detector
	// budget enforces per-model, per-client query budgets from the
	// registry's policies.
	budget *api.BudgetLedger
	// httpRequests counts every HTTP request; a fresh instance per server,
	// registered as serve_http_requests_total on the registry's obs
	// registry (replace semantics, like engine series).
	httpRequests *obs.Counter
	// readiness is the /readyz state machine: starting → ready → draining.
	// Liveness (/healthz) is separate — a starting or draining replica is
	// alive but must not receive new gateway traffic.
	readiness atomic.Int32

	// tracing gates per-request trace construction on /v1/predict (on by
	// default; EnableTracing(false) drops the whole path to nil-trace
	// no-ops). Per-client accounting stays on either way.
	tracing atomic.Bool
	// now is the tracing clock (time.Now outside tests; the /tracez golden
	// injects a fake).
	now func() time.Time
	// traces retains completed request traces for GET /tracez.
	traces *obs.TraceBuffer
	// accessLog, when set, gets one JSON line per completed predict.
	accessLog *obs.AccessLogger
	// Per-client accounting, cardinality-capped at Options.MaxClients.
	clientReqs *obs.CounterVec
	clientErrs *obs.CounterVec
	clientLat  *obs.HistogramVec
}

// Readiness states, in lifecycle order. A server starts not-ready
// (readyStarting) so a gateway never routes to a replica still loading its
// initial models; SetReady flips it once loads complete; StartDrain flips
// it back before the listener stops, so health-checking gateways eject the
// replica from their rings ahead of SIGTERM killing it.
const (
	readyStarting int32 = iota
	readyServing
	readyDraining
)

// NewServer wraps reg. auditBounds may be nil (audit then uses a single
// group unless the request supplies bounds).
func NewServer(reg *Registry, auditBounds []int) *Server {
	opts := reg.Options()
	s := &Server{
		reg: reg, auditBounds: auditBounds, mux: http.NewServeMux(),
		detector:     newDetector(opts),
		budget:       api.NewBudgetLedger(),
		httpRequests: obs.NewCounter(),
		now:          time.Now,
		traces:       obs.NewTraceBuffer(0, 0, 0),
		clientReqs:   obs.NewCounterVec(opts.Obs, "serve_client_requests_total", "client", opts.MaxClients),
		clientErrs:   obs.NewCounterVec(opts.Obs, "serve_client_errors_total", "client", opts.MaxClients),
		clientLat:    obs.NewHistogramVec(opts.Obs, "serve_client_latency_seconds", "client", opts.MaxClients, DefaultLatencyBuckets),
	}
	s.tracing.Store(true)
	opts.Obs.RegisterCounter("serve_http_requests_total", s.httpRequests)
	s.ops = map[string]api.ModelOpHandler{
		"audit":  s.opAudit,
		"load":   s.opLoad,
		"policy": s.opPolicy,
	}
	s.handle("POST /v1/predict", s.handlePredict)
	s.handle("GET /v1/models", s.handleModels)
	s.handle("POST /v1/models/{nameop}", s.handleModelOp)
	s.handle("GET /healthz", s.handleHealth)
	s.handle("GET /readyz", s.handleReady)
	s.handle("GET /statsz", s.handleStats)
	s.handle("GET /tracez", s.handleTraces)
	s.handle("GET /detectz", s.handleDetect)
	s.handle("GET /metricsz", s.handleMetrics)
	return s
}

// handle registers pattern on the mux and records it for Routes.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.routes = append(s.routes, pattern)
	s.mux.HandleFunc(pattern, h)
}

// Routes returns every registered mux pattern in registration order — the
// server's whole HTTP surface, which the route-inventory golden pins.
func (s *Server) Routes() []string {
	return append([]string(nil), s.routes...)
}

// Detector returns the server's extraction-pattern detector (what
// /detectz reports from).
func (s *Server) Detector() *Detector { return s.detector }

// EnableTracing toggles per-request trace construction (on by default).
// With tracing off, predictions still flow and per-client accounting still
// counts — only trace records, spans, and the timing response headers stop.
func (s *Server) EnableTracing(on bool) { s.tracing.Store(on) }

// SetAccessLog directs one structured JSON line per completed predict to w
// (nil disables). Lines are TraceRecords without spans.
func (s *Server) SetAccessLog(w io.Writer) { s.accessLog = obs.NewAccessLogger(w) }

// Traces returns the server's completed-trace buffer (what /tracez serves).
func (s *Server) Traces() *obs.TraceBuffer { return s.traces }

// SetReady marks the server ready: initial model loading is done and
// /readyz starts answering 200. Idempotent; a draining server stays
// draining (drain is terminal for a process on its way out).
func (s *Server) SetReady() {
	s.readiness.CompareAndSwap(readyStarting, readyServing)
}

// StartDrain marks the server draining: /readyz answers 503 from here on,
// while /healthz and prediction serving stay up. Callers give gateway
// probes a grace period to observe the transition before actually stopping
// the listener, so a drain-aware gateway loses zero requests across a
// replica shutdown.
func (s *Server) StartDrain() {
	s.readiness.Store(readyDraining)
}

// Handler returns the root handler. Every request body is bounded at
// api.MaxBodyBytes, so a direct client cannot make the replica buffer
// more than the gateway would forward; an oversize body fails its JSON
// decode and answers 400.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.httpRequests.Inc()
		r.Body = http.MaxBytesReader(w, r.Body, api.MaxBodyBytes)
		s.mux.ServeHTTP(w, r)
	})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	client := obs.ClientFrom(r.Header.Get(obs.HeaderClient), r.RemoteAddr)
	var tr *obs.RequestTrace
	if s.tracing.Load() {
		// A malformed or absent X-Dac-Trace yields the zero ID, which mints
		// a fresh trace — a direct (non-gateway) call still gets traced.
		id, hop, _ := obs.ParseTraceHeader(r.Header.Get(obs.HeaderTrace))
		tr = obs.NewRequestTrace(id, s.now)
		tr.SetClient(client)
		tr.SetHop(hop)
	}
	fail := func(status int, code, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		traceID := ""
		if tr != nil {
			traceID = tr.ID().String()
			w.Header().Set(obs.HeaderTrace, traceID)
		}
		api.WriteError(w, status, code, traceID, "%s", msg)
		s.finishPredict(tr, client, status, msg)
	}
	sp := tr.StartSpan("decode")
	var req api.PredictRequest
	err := json.NewDecoder(r.Body).Decode(&req)
	sp.End()
	if err != nil {
		fail(http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
		return
	}
	if req.API != "" && req.API != api.Version {
		fail(http.StatusBadRequest, api.CodeUnsupportedAPI, "unsupported api version %q (this server speaks %q)", req.API, api.Version)
		return
	}
	tr.SetModel(req.Model)
	if (req.Input == nil) == (req.Inputs == nil) {
		fail(http.StatusBadRequest, api.CodeBadRequest, "exactly one of input/inputs must be set")
		return
	}
	en, ok := s.reg.Get(req.Model)
	if !ok {
		fail(http.StatusNotFound, api.CodeNotFound, "unknown model %q", req.Model)
		return
	}
	tr.SetDigest(en.Digest)
	inputs := req.Inputs
	if req.Input != nil {
		inputs = [][]float64{req.Input}
	}
	if len(inputs) == 0 {
		fail(http.StatusBadRequest, api.CodeBadRequest, "empty batch")
		return
	}
	// The detector sees every attempt — including ones the budget denies
	// below, since denied probes are still extraction pressure.
	s.detector.Observe(client, inputs)
	pol := s.reg.PolicyFor(req.Model)
	if !s.budget.Allow(req.Model, client, len(inputs), pol.QueryBudget) {
		fail(http.StatusTooManyRequests, api.CodeBudgetExhausted,
			"client %q has exhausted its %d-sample query budget for model %q", client, pol.QueryBudget, req.Model)
		return
	}
	// Submit every sample independently so the engine is free to coalesce
	// them with other requests in flight; the response is all-or-nothing.
	subStart := tr.Clock()
	preds := make([]Prediction, len(inputs))
	tms := make([]Timing, len(inputs))
	errs := make([]error, len(inputs))
	var wg sync.WaitGroup
	for i, in := range inputs {
		wg.Add(1)
		go func(i int, in []float64) {
			defer wg.Done()
			preds[i], tms[i], errs[i] = en.PredictTimed(in)
		}(i, in)
	}
	wg.Wait()
	subEnd := tr.Clock()
	// The request's breakdown is the worst sample: the response could not
	// be written before the slowest queue wait and forward pass finished.
	var qw, cw time.Duration
	batch := 0
	for _, tm := range tms {
		if tm.QueueWait > qw {
			qw = tm.QueueWait
		}
		if tm.Compute > cw {
			cw = tm.Compute
		}
		if tm.Batch > batch {
			batch = tm.Batch
		}
	}
	for _, err := range errs {
		if err != nil {
			switch {
			case errors.Is(err, ErrQueueFull):
				fail(http.StatusTooManyRequests, api.CodeOverCapacity, "%v", err)
			case errors.Is(err, ErrClosed):
				fail(http.StatusServiceUnavailable, api.CodeUnavailable, "%v", err)
			default:
				fail(http.StatusBadRequest, api.CodeBadRequest, "%v", err)
			}
			return
		}
	}
	if tr != nil {
		tr.AddSpan("predict", subStart, subEnd.Sub(subStart))
		tr.AddSpan("predict/queue", subStart, qw)
		tr.AddSpan("predict/compute", subStart.Add(qw), cw)
		tr.SetBatch(batch)
		tr.SetQueueCompute(qw, cw)
		w.Header().Set(obs.HeaderTrace, tr.ID().String())
		w.Header().Set(obs.HeaderServerTiming, obs.FormatTimings([]obs.Timing{
			{Name: "queue", Value: qw.Microseconds()},
			{Name: "compute", Value: cw.Microseconds()},
			{Name: "batch", Value: int64(batch)},
			{Name: "total", Value: subEnd.Sub(subStart).Microseconds()},
		}))
	}
	// The policy restricts the response after the full forward pass ran —
	// defenses change what leaves the server, never the computation.
	mode := pol.Apply(preds)
	if req.OmitScores {
		omitScores(preds)
	}
	api.WriteJSON(w, http.StatusOK, api.PredictResponse{
		API: api.Version, Model: en.Name, Digest: en.Digest, Mode: mode, Predictions: preds,
	})
	s.finishPredict(tr, client, http.StatusOK, "")
}

// finishPredict closes out one predict request: per-client accounting
// (always), then — when tracing — the finished record goes to the trace
// buffer and the access log.
func (s *Server) finishPredict(tr *obs.RequestTrace, client string, status int, errMsg string) {
	s.clientReqs.Get(client).Inc()
	if status >= 400 {
		s.clientErrs.Get(client).Inc()
	}
	if tr == nil {
		return
	}
	rec := tr.Finish(status, errMsg)
	s.clientLat.Observe(client, float64(rec.DurMicros)/1e6)
	s.traces.Add(rec)
	s.accessLog.Log(rec)
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, s.traces.Snapshot())
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, s.detector.Report())
}

type modelInfo struct {
	Name       string  `json:"name"`
	Digest     string  `json:"digest"`
	Quantized  bool    `json:"quantized"`
	Native     bool    `json:"native"`
	Params     int     `json:"params"`
	SizeBytes  int     `json:"size_bytes"`
	RawBytes   int     `json:"raw_bytes"`
	Ratio      float64 `json:"compression_ratio"`
	Resident   int     `json:"resident_bytes"`
	InputShape []int   `json:"input_shape"`
	Classes    int     `json:"classes"`
}

func entryInfo(en *Entry) modelInfo {
	return modelInfo{
		Name:       en.Name,
		Digest:     en.Digest,
		Quantized:  en.Quantized,
		Native:     en.Native,
		Params:     en.Params,
		SizeBytes:  en.Size.TotalBytes(),
		RawBytes:   en.Size.RawBytes,
		Ratio:      en.Size.Ratio(),
		Resident:   en.ResidentBytes(),
		InputShape: en.Model().InputShape,
		Classes:    en.Model().Classes,
	}
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.List()
	infos := make([]modelInfo, len(entries))
	for i, en := range entries {
		infos[i] = entryInfo(en)
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{"models": infos})
}

type auditRequest struct {
	// Bounds override the server's default group bounds; Threshold <= 0
	// uses attack.DefaultDetectionThreshold.
	Bounds    []int   `json:"bounds,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
}

type auditResponse struct {
	Model      string       `json:"model"`
	Digest     string       `json:"digest"`
	Quantized  bool         `json:"quantized"`
	Threshold  float64      `json:"threshold"`
	Global     float64      `json:"global"`
	PerGroup   []auditGroup `json:"per_group"`
	Suspicious bool         `json:"suspicious"`
	Verdict    string       `json:"verdict"`
}

type auditGroup struct {
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// handleModelOp routes POST /v1/models/{name}:{op} through the op
// dispatch table.
func (s *Server) handleModelOp(w http.ResponseWriter, r *http.Request) {
	api.DispatchModelOp(w, r, r.PathValue("nameop"), s.ops)
}

func (s *Server) opAudit(w http.ResponseWriter, r *http.Request, name string) {
	en, found := s.reg.Get(name)
	if !found {
		api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "", "unknown model %q", name)
		return
	}
	var req auditRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "", "bad request body: %v", err)
			return
		}
	}
	bounds := req.Bounds
	if bounds == nil {
		bounds = s.auditBounds
	}
	// The same detection pass dacextract -audit runs offline: weight reads
	// only, so it is safe alongside in-flight forward passes. Native
	// entries hold no float weights, so the audit dequantizes a private
	// copy from the retained release record.
	am, err := en.AuditModel()
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "", "%v", err)
		return
	}
	rep := attack.AuditModel(am, bounds, req.Threshold)
	resp := auditResponse{
		Model:      en.Name,
		Digest:     en.Digest,
		Quantized:  rep.Quantized,
		Threshold:  rep.Threshold,
		Global:     rep.Global,
		Suspicious: rep.Suspicious,
		Verdict:    "no distributional anomaly detected",
	}
	if rep.Suspicious {
		resp.Verdict = "SUSPICIOUS: weight distribution is far from benign-Gaussian"
	}
	for _, g := range rep.PerGroup {
		resp.PerGroup = append(resp.PerGroup, auditGroup{Name: g.Name, Score: g.Score})
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

type loadRequest struct {
	// Digest names the release in the registry's artifact store (hex
	// SHA-256 of the released file bytes).
	Digest string `json:"digest"`
}

// opLoad is the replica side of digest-based model distribution: it pulls
// the release named by digest from the attached artifact store and
// hot-registers it under name, so a gateway can roll a fleet onto new
// weights without any replica ever seeing a file path. The serving mode
// follows ModeAuto (Options.NativeQuant decides, like startup loads).
func (s *Server) opLoad(w http.ResponseWriter, r *http.Request, name string) {
	var req loadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "", "bad request body: %v", err)
		return
	}
	if req.Digest == "" {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "", "digest must be set")
		return
	}
	en, err := s.reg.LoadDigest(name, req.Digest, ModeAuto)
	switch {
	case err == nil:
		api.WriteJSON(w, http.StatusOK, entryInfo(en))
	case errors.Is(err, ErrNoStore):
		api.WriteError(w, http.StatusNotImplemented, api.CodeNotImplemented, "", "%v", err)
	case errors.Is(err, fs.ErrNotExist):
		api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "", "%v", err)
	case errors.Is(err, ErrClosed):
		api.WriteError(w, http.StatusServiceUnavailable, api.CodeUnavailable, "", "%v", err)
	default:
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "", "%v", err)
	}
}

// policyResponse answers both the get and set forms of {name}:policy.
type policyResponse struct {
	Model  string `json:"model"`
	Policy Policy `json:"policy"`
	Active bool   `json:"active"`
}

// opPolicy gets (empty body) or sets (Policy JSON body) the model's
// serving defense policy. Setting validates first, swaps the policy in
// without touching the loaded model or its engine, and re-arms every
// client's query budget for the model from zero.
func (s *Server) opPolicy(w http.ResponseWriter, r *http.Request, name string) {
	if r.ContentLength == 0 {
		pol := s.reg.PolicyFor(name)
		api.WriteJSON(w, http.StatusOK, policyResponse{Model: name, Policy: pol, Active: pol.Active()})
		return
	}
	var p Policy
	if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "", "bad request body: %v", err)
		return
	}
	if err := s.reg.SetPolicy(name, p); err != nil {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "", "%v", err)
		return
	}
	s.budget.Reset(name)
	api.WriteJSON(w, http.StatusOK, policyResponse{Model: name, Policy: p, Active: p.Active()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"models": len(s.reg.List()),
	})
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	switch s.readiness.Load() {
	case readyServing:
		api.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready"})
	case readyDraining:
		api.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
	default:
		api.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "starting"})
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"http_requests": s.httpRequests.Value(),
		"models":        s.reg.Stats(),
		"skipped":       s.reg.SkippedCount(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.reg.Options().Obs
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg.WritePrometheus(w)
}

package serve

import (
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"sync/atomic"

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
	// front holds the routes, the ops endpoints and the predict lifecycle
	// the gateway shares.
	front *api.Front
	// detector watches per-client query volume and input novelty for
	// extraction-like traffic (GET /detectz).
	detector *Detector
	// budget enforces per-model, per-client query budgets from the
	// registry's policies.
	budget *api.BudgetLedger
	// readiness is the /readyz state machine: starting → ready → draining.
	// Liveness (/healthz) is separate — a starting or draining replica is
	// alive but must not receive new gateway traffic.
	readiness atomic.Int32
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
		reg: reg, auditBounds: auditBounds,
		front:    api.NewFront(opts.Obs, "serve"),
		detector: newDetector(opts),
		budget:   api.NewBudgetLedger(),
	}
	f := s.front
	f.Handle("POST /v1/predict", s.handlePredict)
	f.Handle("GET /v1/models", s.handleModels)
	f.HandleModelOps(map[string]api.ModelOpHandler{
		"audit":  s.opAudit,
		"load":   s.opLoad,
		"policy": s.opPolicy,
	})
	f.Handle("GET /healthz", s.handleHealth)
	f.Handle("GET /readyz", s.handleReady)
	f.Handle("GET /statsz", s.handleStats)
	f.Handle("GET /tracez", f.HandleTraces)
	f.Handle("GET /detectz", s.handleDetect)
	f.Handle("GET /metricsz", f.HandleMetrics)
	return s
}

// Routes returns every registered mux pattern in registration order — the
// server's whole HTTP surface, which the route-inventory golden pins.
func (s *Server) Routes() []string { return s.front.Routes() }

// Detector returns the server's extraction-pattern detector (what
// /detectz reports from).
func (s *Server) Detector() *Detector { return s.detector }

// EnableTracing toggles per-request trace construction (on by default).
// With tracing off, predictions still flow and the per-client request and
// error counts still count. Trace records, spans, the timing response
// headers, the access log and the per-client latency histogram (fed from
// the finished trace) stop.
func (s *Server) EnableTracing(on bool) { s.front.EnableTracing(on) }

// SetAccessLog directs one structured JSON line per completed traced
// predict to w (nil disables). Lines are TraceRecords without spans.
func (s *Server) SetAccessLog(w io.Writer) { s.front.SetAccessLog(w) }

// Traces returns the server's completed-trace buffer (what /tracez serves).
func (s *Server) Traces() *obs.TraceBuffer { return s.front.Traces() }

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

// Handler returns the root handler: every request counted, every body
// bounded at api.MaxBodyBytes.
func (s *Server) Handler() http.Handler { return s.front.Handler() }

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	c := s.front.Begin(w, r)
	tr := c.Trace
	sp := tr.StartSpan("decode")
	var req api.PredictRequest
	err := json.NewDecoder(r.Body).Decode(&req)
	sp.End()
	if err != nil {
		c.Fail(http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
		return
	}
	if req.API != "" && req.API != api.Version {
		c.Fail(http.StatusBadRequest, api.CodeUnsupportedAPI, "unsupported api version %q (this server speaks %q)", req.API, api.Version)
		return
	}
	tr.SetModel(req.Model)
	if (req.Input == nil) == (req.Inputs == nil) {
		c.Fail(http.StatusBadRequest, api.CodeBadRequest, "exactly one of input/inputs must be set")
		return
	}
	en, ok := s.reg.Get(req.Model)
	if !ok {
		c.Fail(http.StatusNotFound, api.CodeNotFound, "unknown model %q", req.Model)
		return
	}
	tr.SetDigest(en.Digest)
	inputs := req.Inputs
	if req.Input != nil {
		inputs = [][]float64{req.Input}
	}
	if len(inputs) == 0 {
		c.Fail(http.StatusBadRequest, api.CodeBadRequest, "empty batch")
		return
	}
	// The detector sees every attempt — including ones the budget denies
	// below, since denied probes are still extraction pressure.
	s.detector.Observe(c.Client, inputs)
	pol := s.reg.PolicyFor(req.Model)
	if !s.budget.Allow(req.Model, c.Client, len(inputs), pol.QueryBudget) {
		c.Fail(http.StatusTooManyRequests, api.CodeBudgetExhausted,
			"client %q has exhausted its %d-sample query budget for model %q", c.Client, pol.QueryBudget, req.Model)
		return
	}
	// The engine admits the request whole and answers it once, with its
	// worst sample's timing: the response could not be written before the
	// slowest queue wait and forward pass finished.
	subStart := tr.Clock()
	preds, tm, err := en.Predict(inputs)
	subEnd := tr.Clock()
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			c.Fail(http.StatusTooManyRequests, api.CodeOverCapacity, "%v", err)
		case errors.Is(err, ErrClosed):
			c.Fail(http.StatusServiceUnavailable, api.CodeUnavailable, "%v", err)
		default:
			c.Fail(http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		}
		return
	}
	if tr != nil {
		tr.AddSpan("predict", subStart, subEnd.Sub(subStart))
		tr.AddSpan("predict/queue", subStart, tm.QueueWait)
		tr.AddSpan("predict/compute", subStart.Add(tm.QueueWait), tm.Compute)
		tr.SetBatch(tm.Batch)
		tr.SetQueueCompute(tm.QueueWait, tm.Compute)
		w.Header().Set(obs.HeaderServerTiming, obs.FormatTimings([]obs.Timing{
			{Name: "queue", Value: tm.QueueWait.Microseconds()},
			{Name: "compute", Value: tm.Compute.Microseconds()},
			{Name: "batch", Value: int64(tm.Batch)},
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
	c.Finish(http.StatusOK, "")
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
		"http_requests": s.front.HTTPRequests(),
		"models":        s.reg.Stats(),
		"skipped":       s.reg.SkippedCount(),
	})
}

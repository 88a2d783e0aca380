package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"repro/internal/api"
	"repro/internal/obs"
)

// Server exposes a Gateway over the versioned /v1 HTTP surface (schema in
// package api):
//
//	POST /v1/predict       routed prediction (same body as dacserve)
//	GET  /v1/models        fleet-aggregated model list with digest
//	                       consistency verdicts
//	GET  /v1/assignments   advertised {model name → release digest}
//	POST /v1/models/{name}:reload  rolling reload: {"digest": ...}
//	POST /v1/models/{name}:policy  get/set the model's serving policy,
//	                       fanned out to every eligible replica
//	GET  /healthz          gateway liveness + pool summary
//	GET  /readyz           503 until at least one replica is on the ring
//	GET  /statsz           routing/health counters (JSON)
//	GET  /metricsz         the gateway's obs registry (Prometheus text;
//	                       ?format=json for the JSON snapshot)
type Server struct {
	gw *Gateway
	// front holds the routes, the ops endpoints and the predict lifecycle
	// the replica shares; tracing stays on.
	front *api.Front
}

// NewServer wraps gw.
func NewServer(gw *Gateway) *Server {
	s := &Server{gw: gw, front: api.NewFront(gw.opts.Obs, "gateway")}
	f := s.front
	f.SetAccessLog(gw.opts.AccessLog)
	f.Handle("POST /v1/predict", s.handlePredict)
	f.Handle("GET /v1/models", s.handleModels)
	f.Handle("GET /v1/assignments", s.handleAssignments)
	f.HandleModelOps(map[string]api.ModelOpHandler{
		"reload": s.opReload,
		"policy": s.opPolicy,
	})
	f.Handle("GET /healthz", s.handleHealth)
	f.Handle("GET /readyz", s.handleReady)
	f.Handle("GET /statsz", s.handleStats)
	f.Handle("GET /tracez", f.HandleTraces)
	f.Handle("GET /metricsz", f.HandleMetrics)
	return s
}

// Routes returns every registered mux pattern in registration order — the
// gateway's whole HTTP surface, which the route-inventory golden pins.
func (s *Server) Routes() []string { return s.front.Routes() }

// Handler returns the root handler: every request counted, every body
// bounded at api.MaxBodyBytes, as on the replicas.
func (s *Server) Handler() http.Handler { return s.front.Handler() }

// Traces returns the server's completed-trace buffer (what /tracez
// serves).
func (s *Server) Traces() *obs.TraceBuffer { return s.front.Traces() }

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	// The gateway is where a fleet trace is born: mint (or adopt) the trace
	// ID here, and it follows the request through routing, each proxied
	// attempt, and the replica's own trace.
	c := s.front.Begin(w, r)
	sp := c.Trace.StartSpan("decode")
	body, err := io.ReadAll(r.Body)
	if err != nil {
		sp.End()
		c.Fail(http.StatusBadRequest, api.CodeBadRequest, "read request body: %v", err)
		return
	}
	// Only the routing key, the API pin, and the sample count are decoded
	// here; the body is forwarded verbatim so replica answers (and errors)
	// pass through byte-identical. Samples stay raw — the edge budget needs
	// their count, not their contents.
	var req struct {
		API    string            `json:"api"`
		Model  string            `json:"model"`
		Input  json.RawMessage   `json:"input"`
		Inputs []json.RawMessage `json:"inputs"`
	}
	err = json.Unmarshal(body, &req)
	sp.End()
	if err != nil {
		c.Fail(http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
		return
	}
	if req.API != "" && req.API != api.Version {
		c.Fail(http.StatusBadRequest, api.CodeUnsupportedAPI, "unsupported api version %q (this gateway speaks %q)", req.API, api.Version)
		return
	}
	if req.Model == "" {
		c.Fail(http.StatusBadRequest, api.CodeBadRequest, "model must be set")
		return
	}
	c.Trace.SetModel(req.Model)
	// Edge budget enforcement: a client that spent its allowance is turned
	// away here, before any replica is dialed or retried.
	samples := len(req.Inputs)
	if len(req.Input) > 0 && string(req.Input) != "null" {
		samples = 1
	}
	if samples > 0 {
		if budget := s.gw.edgeBudget(req.Model); !s.gw.budget.Allow(req.Model, c.Client, samples, budget) {
			c.Fail(http.StatusTooManyRequests, api.CodeBudgetExhausted,
				"client %q has exhausted its %d-sample query budget for model %q", c.Client, budget, req.Model)
			return
		}
	}
	s.gw.proxyPredict(r.Context(), w, req.Model, body, &c)
}

// fleetModel is one model name's fleet-wide view: which digest each
// replica serves, whether they agree, and whether they match the
// advertised assignment.
type fleetModel struct {
	Name string `json:"name"`
	// Digest is the fleet digest when every replica agrees; empty on
	// conflict (PerReplica then shows the split).
	Digest string `json:"digest,omitempty"`
	// Consistent reports digest agreement across every replica serving the
	// name — the fleet-wide byte-identical-weights guarantee.
	Consistent bool `json:"consistent"`
	// Assigned is the gateway's advertised digest for the name, when set.
	Assigned string `json:"assigned,omitempty"`
	// MatchesAssignment is false while any replica serves a digest other
	// than the assigned one (e.g. mid-roll).
	MatchesAssignment bool `json:"matches_assignment"`
	// PerReplica maps replica ID → served digest.
	PerReplica map[string]string `json:"per_replica"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	reps := s.gw.Replicas()
	type answer struct {
		rep    *Replica
		models []struct {
			Name   string `json:"name"`
			Digest string `json:"digest"`
		}
		err error
	}
	answers := make([]answer, len(reps))
	var wg sync.WaitGroup
	for i, rep := range reps {
		if !rep.eligible() {
			continue
		}
		wg.Add(1)
		go func(i int, rep *Replica) {
			defer wg.Done()
			answers[i].rep = rep
			answers[i].err = s.gw.getReplicaModels(r.Context(), rep, &answers[i].models)
		}(i, rep)
	}
	wg.Wait()

	assignments := s.gw.Assignments()
	byName := map[string]*fleetModel{}
	probed := 0
	for _, a := range answers {
		if a.rep == nil {
			continue
		}
		if a.err != nil {
			a.rep.noteFailure(a.err)
			continue
		}
		probed++
		for _, m := range a.models {
			fm := byName[m.Name]
			if fm == nil {
				fm = &fleetModel{Name: m.Name, PerReplica: map[string]string{}}
				byName[m.Name] = fm
			}
			fm.PerReplica[a.rep.ID] = m.Digest
		}
	}
	out := make([]*fleetModel, 0, len(byName))
	allConsistent := true
	for _, fm := range byName {
		fm.Consistent = true
		for _, d := range fm.PerReplica {
			if fm.Digest == "" {
				fm.Digest = d
			} else if fm.Digest != d {
				fm.Consistent = false
			}
		}
		if !fm.Consistent {
			fm.Digest = ""
			allConsistent = false
		}
		fm.Assigned = assignments[fm.Name]
		fm.MatchesAssignment = fm.Consistent && (fm.Assigned == "" || fm.Assigned == fm.Digest)
		if !fm.MatchesAssignment {
			allConsistent = false
		}
		out = append(out, fm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"models":     out,
		"replicas":   probed,
		"consistent": allConsistent,
	})
}

// getReplicaModels fetches one replica's /v1/models list.
func (g *Gateway) getReplicaModels(ctx context.Context, rep *Replica, out any) error {
	ctx, cancel := context.WithTimeout(ctx, g.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.BaseURL+"/v1/models", nil)
	if err != nil {
		return err
	}
	resp, err := g.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("models answered %d", resp.StatusCode)
	}
	var wrapper struct {
		Models json.RawMessage `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wrapper); err != nil {
		return err
	}
	return json.Unmarshal(wrapper.Models, out)
}

func (s *Server) handleAssignments(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]any{"assignments": s.gw.Assignments()})
}

// reloadRequest is the body of {name}:reload.
type reloadRequest struct {
	Digest string `json:"digest"`
}

// opReload rolls the fleet onto the release digest in the body, one
// replica at a time (Gateway.RollingReload).
func (s *Server) opReload(w http.ResponseWriter, r *http.Request, name string) {
	var req reloadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "", "bad request body: %v", err)
		return
	}
	if name == "" || req.Digest == "" {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "", "model and digest must be set")
		return
	}
	if err := s.gw.RollingReload(r.Context(), name, req.Digest); err != nil {
		api.WriteError(w, http.StatusBadGateway, api.CodeBadGateway, "", "%v", err)
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"model": name, "digest": req.Digest, "status": "reloaded",
	})
}

// opPolicy fans a serving-policy get (empty body) or set (Policy JSON
// body) out to every eligible replica, so one gateway call flips a defense
// fleet-wide. On a successful set the gateway also learns the model's
// query budget and enforces it at the edge from then on.
func (s *Server) opPolicy(w http.ResponseWriter, r *http.Request, name string) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "", "read request body: %v", err)
		return
	}
	set := len(body) > 0
	var budget struct {
		QueryBudget int `json:"query_budget"`
	}
	if set {
		if err := json.Unmarshal(body, &budget); err != nil {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "", "bad request body: %v", err)
			return
		}
	}
	results := s.gw.fanoutPolicy(r.Context(), name, body)
	if len(results) == 0 {
		api.WriteError(w, http.StatusServiceUnavailable, api.CodeUnavailable,
			"", "no eligible replica to apply policy for %q", name)
		return
	}
	for _, res := range results {
		if res.Status == http.StatusOK {
			continue
		}
		if res.Error != "" {
			api.WriteError(w, http.StatusBadGateway, api.CodeBadGateway,
				"", "policy on replica %s: %s", res.Replica, res.Error)
			return
		}
		// Relay the replica's own envelope verdict (e.g. a validation
		// rejection) with its status, so the caller sees the real reason.
		if e, perr := api.ParseError(res.Response); perr == nil {
			api.WriteError(w, res.Status, e.Code, "", "policy on replica %s: %s", res.Replica, e.Message)
			return
		}
		api.WriteError(w, http.StatusBadGateway, api.CodeBadGateway,
			"", "policy on replica %s answered %d", res.Replica, res.Status)
		return
	}
	if set {
		s.gw.setEdgeBudget(name, budget.QueryBudget)
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"model":    name,
		"replicas": len(results),
		"results":  results,
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	reps := s.gw.Replicas()
	eligible := 0
	for _, rep := range reps {
		if rep.eligible() {
			eligible++
		}
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"replicas": len(reps),
		"eligible": eligible,
	})
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if len(s.gw.currentRing().members) == 0 {
		api.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "no ready replica"})
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	reps := s.gw.Replicas()
	perReplica := make(map[string]replicaSnapshot, len(reps))
	for _, rep := range reps {
		perReplica[rep.ID] = rep.snapshot()
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"requests":        s.gw.requests.Value(),
		"retries":         s.gw.retries.Value(),
		"sheds":           s.gw.sheds.Value(),
		"no_replica":      s.gw.noReplica.Value(),
		"ring_generation": int64(s.gw.generation.Value()),
		"eligible":        int64(s.gw.eligibleG.Value()),
		"replicas":        perReplica,
		"assignments":     s.gw.Assignments(),
	})
}

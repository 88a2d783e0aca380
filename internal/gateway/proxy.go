package gateway

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// attemptResult is one proxied attempt's outcome.
type attemptResult struct {
	status int
	header http.Header
	body   []byte
	err    error // transport-level failure (counts as passive health failure)
}

// retryable reports whether the attempt should be retried on the next
// ring candidate: transport errors, backpressure (429), and server-side
// failures (5xx). 4xx client errors are the caller's fault on every
// replica, so retrying would only double the damage.
func (a attemptResult) retryable() bool {
	return a.err != nil || a.status == http.StatusTooManyRequests || a.status >= 500
}

// proxyPredict routes one predict request body across the pool: pick a
// candidate under the bounded-load rule, forward, and on a retryable
// failure back off once and try the next distinct candidate. Transport
// errors mark the replica passively failed. The final attempt's response
// (or a gateway-synthesized error) is written to w. tr is the request's
// trace (nil-safe): routing and each proxied attempt get spans, and the
// replica's X-Dac-Server-Timing breakdown is attributed to its attempt.
func (g *Gateway) proxyPredict(ctx context.Context, w http.ResponseWriter, model string, body []byte, tr *obs.RequestTrace, client string) {
	g.requests.Inc()
	fail := func(status int, code, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		writeTraceError(w, status, code, tr, msg)
		g.finishPredict(tr, client, status, msg)
	}
	routeSp := tr.StartSpan("route")
	cands := g.currentRing().candidates(model)
	if len(cands) == 0 {
		routeSp.End()
		g.noReplica.Inc()
		fail(http.StatusServiceUnavailable, api.CodeUnavailable, "no ready replica (pool of %d)", len(g.Replicas()))
		return
	}
	first := g.pick(cands, nil)
	routeSp.End()
	if first == nil {
		g.sheds.Inc()
		tr.SetShed()
		fail(http.StatusServiceUnavailable, api.CodeOverCapacity, "shed: all %d candidate replica(s) at max in-flight", len(cands))
		return
	}
	res := g.tracedAttempt(ctx, first, body, tr, client, 0)
	if res.retryable() {
		if second := g.pick(cands, first); second != nil {
			g.retries.Inc()
			tr.SetRetried()
			if g.opts.RetryBackoff > 0 {
				select {
				case <-time.After(g.opts.RetryBackoff):
				case <-ctx.Done():
				}
			}
			res = g.tracedAttempt(ctx, second, body, tr, client, 1)
		}
	}
	if res.err != nil {
		fail(http.StatusBadGateway, api.CodeBadGateway, "replica unreachable: %v", res.err)
		return
	}
	relay(w, res, tr)
	g.finishPredict(tr, client, res.status, "")
}

// tracedAttempt wraps one proxied attempt in a span (attempt0/attempt1,
// annotated with the replica ID) and folds the replica's reported
// X-Dac-Server-Timing breakdown into child spans, so a gateway trace shows
// where inside the replica the time went. The last attempt's breakdown
// wins the record-level queue/compute/batch fields — it is the attempt
// that produced the relayed response.
func (g *Gateway) tracedAttempt(ctx context.Context, rep *Replica, body []byte, tr *obs.RequestTrace, client string, n int) attemptResult {
	name := fmt.Sprintf("attempt%d", n)
	start := tr.Clock()
	res := g.attempt(ctx, rep, body, tr.ID(), client, n)
	if tr == nil {
		return res
	}
	tr.AddSpanDetail(name, rep.ID, start, tr.Clock().Sub(start))
	if res.err != nil {
		return res
	}
	var queue, compute, batch int64
	for _, tm := range obs.ParseTimings(res.header.Get(obs.HeaderServerTiming)) {
		switch tm.Name {
		case "queue":
			queue = tm.Value
		case "compute":
			compute = tm.Value
		case "batch":
			batch = tm.Value
		}
	}
	if queue > 0 || compute > 0 {
		qd := time.Duration(queue) * time.Microsecond
		tr.AddSpan(name+"/queue", start, qd)
		tr.AddSpan(name+"/compute", start.Add(qd), time.Duration(compute)*time.Microsecond)
		tr.SetQueueCompute(qd, time.Duration(compute)*time.Microsecond)
	}
	if batch > 0 {
		tr.SetBatch(int(batch))
	}
	return res
}

// attempt forwards the predict body to one replica and reads the full
// response. In-flight accounting brackets the call — it is the signal
// bounded-load routing and drain waits read. The trace ID and client
// identity propagate in X-Dac-Trace (hop label a<n>) and X-Dac-Client so
// the replica's trace and accounting line up with the gateway's.
func (g *Gateway) attempt(ctx context.Context, rep *Replica, body []byte, traceID obs.TraceID, client string, n int) attemptResult {
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	rep.requests.Inc()

	ctx, cancel := context.WithTimeout(ctx, g.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.BaseURL+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		rep.errors.Inc()
		return attemptResult{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if !traceID.IsZero() {
		req.Header.Set(obs.HeaderTrace, obs.FormatTraceHeader(traceID, fmt.Sprintf("a%d", n)))
	}
	if client != "" {
		req.Header.Set(obs.HeaderClient, client)
	}
	resp, err := g.opts.Client.Do(req)
	if err != nil {
		rep.errors.Inc()
		rep.noteFailure(err)
		return attemptResult{err: err}
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		rep.errors.Inc()
		rep.noteFailure(err)
		return attemptResult{err: err}
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		rep.errors.Inc()
	}
	return attemptResult{status: resp.StatusCode, header: resp.Header, body: out}
}

// relay writes a replica's response through unchanged, adding the trace ID
// and passing the replica's timing breakdown along so the end client sees
// both.
func relay(w http.ResponseWriter, res attemptResult, tr *obs.RequestTrace) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if st := res.header.Get(obs.HeaderServerTiming); st != "" {
		w.Header().Set(obs.HeaderServerTiming, st)
	}
	if tr != nil {
		w.Header().Set(obs.HeaderTrace, tr.ID().String())
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// finishPredict closes out one gateway predict: per-client accounting
// (always), then the finished trace goes to the buffer and access log.
func (g *Gateway) finishPredict(tr *obs.RequestTrace, client string, status int, errMsg string) {
	g.clientReqs.Get(client).Inc()
	if status >= 400 {
		g.clientErrs.Get(client).Inc()
	}
	if tr == nil {
		return
	}
	rec := tr.Finish(status, errMsg)
	g.clientLat.Observe(client, float64(rec.DurMicros)/1e6)
	g.traces.Add(rec)
	g.accessLog.Log(rec)
}

// Traces returns the gateway's completed-trace buffer (what /tracez
// serves).
func (g *Gateway) Traces() *obs.TraceBuffer { return g.traces }

// writeTraceError writes the unified error envelope with the request's
// trace ID folded in and echoed in X-Dac-Trace, mirroring the serve
// package. An empty code falls back to the status's default.
func writeTraceError(w http.ResponseWriter, status int, code string, tr *obs.RequestTrace, msg string) {
	traceID := ""
	if tr != nil {
		traceID = tr.ID().String()
		w.Header().Set(obs.HeaderTrace, traceID)
	}
	api.WriteError(w, status, code, traceID, "%s", msg)
}

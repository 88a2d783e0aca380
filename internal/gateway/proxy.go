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

// proxyPredict routes one predict request body across the pool: pick the
// least-in-flight candidate, forward, and on a retryable failure back off
// once and retry on the least-in-flight of the other candidates. Transport
// errors mark the replica passively failed. The final attempt's response
// (or a gateway-synthesized error) is written to w, and c finished. The
// routing and each proxied attempt get spans on c's trace, and the
// replica's X-Dac-Server-Timing breakdown is attributed to its attempt.
func (g *Gateway) proxyPredict(ctx context.Context, w http.ResponseWriter, model string, body []byte, c *api.Call) {
	g.requests.Inc()
	routeSp := c.Trace.StartSpan("route")
	cands := g.currentRing().candidates(model)
	if len(cands) == 0 {
		routeSp.End()
		g.noReplica.Inc()
		c.Fail(http.StatusServiceUnavailable, api.CodeUnavailable, "no ready replica (pool of %d)", len(g.Replicas()))
		return
	}
	first := g.pick(cands, nil)
	routeSp.End()
	if first == nil {
		g.sheds.Inc()
		c.Trace.SetShed()
		c.Fail(http.StatusServiceUnavailable, api.CodeOverCapacity, "shed: all %d candidate replica(s) at max in-flight", len(cands))
		return
	}
	res := g.tracedAttempt(ctx, first, body, c.Trace, c.Client, 0)
	if res.retryable() {
		if second := g.pick(cands, first); second != nil {
			g.retries.Inc()
			c.Trace.SetRetried()
			if g.opts.RetryBackoff > 0 {
				select {
				case <-time.After(g.opts.RetryBackoff):
				case <-ctx.Done():
				}
			}
			res = g.tracedAttempt(ctx, second, body, c.Trace, c.Client, 1)
		}
	}
	if res.err != nil {
		c.Fail(http.StatusBadGateway, api.CodeBadGateway, "replica unreachable: %v", res.err)
		return
	}
	relay(w, res)
	c.Finish(res.status, "")
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
// least-in-flight routing and drain waits read. The trace ID and client
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

// relay writes a replica's response through unchanged, passing the
// replica's timing breakdown along beside the gateway's trace ID so the end
// client sees both.
func relay(w http.ResponseWriter, res attemptResult) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if st := res.header.Get(obs.HeaderServerTiming); st != "" {
		w.Header().Set(obs.HeaderServerTiming, st)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

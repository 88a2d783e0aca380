package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// Request-scoped distributed tracing. Where the Tracer in span.go
// aggregates phase timings process-wide, this file follows one request
// across processes: the gateway mints a 128-bit trace ID for every
// /v1/predict, propagates it to the replica in the X-Dac-Trace header, and
// each hop builds a RequestTrace — a flat list of named spans with offsets
// relative to the request start — that lands in a bounded TraceBuffer when
// the request finishes (exposed at GET /tracez). Replicas return their own
// timing breakdown in the X-Dac-Server-Timing response header so the
// gateway can attribute replica queue/compute time to the right attempt
// span. A nil *RequestTrace is valid everywhere and makes every method a
// no-op, mirroring the nil-Tracer contract.

// Propagation header names shared by the gateway and replica tiers.
const (
	// HeaderTrace carries the trace context on a proxied request:
	// "<32-hex trace id>" optionally followed by ";hop=<label>" naming the
	// sender's attempt (the gateway uses a0 for the first attempt, a1 for
	// the retry). Responses echo the bare trace ID back in the same header.
	HeaderTrace = "X-Dac-Trace"
	// HeaderClient names the end client for per-client accounting. The
	// gateway forwards it (or synthesizes it from the caller's remote
	// address) so replica-side accounting attributes work to the real
	// client, not to the gateway's address.
	HeaderClient = "X-Dac-Client"
	// HeaderServerTiming is the replica's per-request timing breakdown,
	// formatted by FormatTimings: "queue=<µs>,compute=<µs>,batch=<n>,total=<µs>".
	HeaderServerTiming = "X-Dac-Server-Timing"
)

// TraceID is a 128-bit request identifier, rendered as 32 hex characters.
type TraceID [16]byte

// NewTraceID mints a random trace ID.
func NewTraceID() TraceID {
	var id TraceID
	rand.Read(id[:]) // crypto/rand.Read never fails in practice
	return id
}

// IsZero reports whether the ID is the zero value (no trace context).
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex characters.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// ParseTraceID parses the 32-hex-character form.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 2*len(id) {
		return TraceID{}, fmt.Errorf("obs: trace id %q is not %d hex characters", s, 2*len(id))
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return TraceID{}, fmt.Errorf("obs: trace id %q: %w", s, err)
	}
	copy(id[:], raw)
	return id, nil
}

// FormatTraceHeader renders an X-Dac-Trace value: the trace ID, plus
// ";hop=<label>" when hop is non-empty.
func FormatTraceHeader(id TraceID, hop string) string {
	if hop == "" {
		return id.String()
	}
	return id.String() + ";hop=" + hop
}

// ParseTraceHeader parses an X-Dac-Trace value into its trace ID and
// optional hop label. A missing or malformed value returns the zero ID
// (callers then mint a fresh trace) and a non-nil error.
func ParseTraceHeader(v string) (TraceID, string, error) {
	idPart, rest, _ := strings.Cut(v, ";")
	id, err := ParseTraceID(strings.TrimSpace(idPart))
	if err != nil {
		return TraceID{}, "", err
	}
	hop := ""
	if hv, ok := strings.CutPrefix(strings.TrimSpace(rest), "hop="); ok {
		hop = hv
	}
	return id, hop, nil
}

// Timing is one name=value pair of an X-Dac-Server-Timing header. Values
// are microseconds for the queue/compute/total entries and a plain count
// for batch.
type Timing struct {
	Name  string
	Value int64
}

// FormatTimings renders timings as "name=value,name=value".
func FormatTimings(ts []Timing) string {
	var b strings.Builder
	for i, tm := range ts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(tm.Name)
		b.WriteByte('=')
		b.WriteString(strconv.FormatInt(tm.Value, 10))
	}
	return b.String()
}

// ParseTimings parses FormatTimings output, skipping malformed pairs.
func ParseTimings(v string) []Timing {
	if v == "" {
		return nil
	}
	var out []Timing
	for _, part := range strings.Split(v, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			continue
		}
		out = append(out, Timing{Name: name, Value: n})
	}
	return out
}

// ClientFrom derives the accounting client ID for a request: the
// X-Dac-Client header value when present, else the host part of the remote
// address, else "unknown". The header becomes a metric label, so it is made
// valid UTF-8 and cut on a rune boundary to at most 64 bytes: a hostile
// header can neither bloat metric names nor break the exposition format.
func ClientFrom(header, remoteAddr string) string {
	if header != "" {
		header = strings.ToValidUTF8(header, "\uFFFD")
		if len(header) > 64 {
			cut := 64
			for !utf8.RuneStart(header[cut]) {
				cut--
			}
			header = header[:cut]
		}
		return header
	}
	if host, _, err := net.SplitHostPort(remoteAddr); err == nil && host != "" {
		return host
	}
	if remoteAddr != "" {
		return remoteAddr
	}
	return "unknown"
}

// SpanRecord is one timed phase inside a completed request trace. Names
// are "/"-separated paths (attempt0/queue); offsets are relative to the
// trace start.
type SpanRecord struct {
	Name string `json:"name"`
	// Detail optionally annotates the span (the replica ID on gateway
	// attempt spans).
	Detail      string `json:"detail,omitempty"`
	StartMicros int64  `json:"start_us"`
	DurMicros   int64  `json:"dur_us"`
}

// TraceRecord is one completed request as stored in a TraceBuffer and
// written to the access log (without spans).
type TraceRecord struct {
	TraceID string `json:"trace_id"`
	// Hop is the attempt label this process received in X-Dac-Trace (a0 on
	// a gateway's first attempt, a1 on its retry; empty for direct calls).
	Hop     string `json:"hop,omitempty"`
	Client  string `json:"client,omitempty"`
	Model   string `json:"model,omitempty"`
	Digest  string `json:"digest,omitempty"`
	Status  int    `json:"status"`
	Error   string `json:"error,omitempty"`
	Retried bool   `json:"retried,omitempty"`
	Shed    bool   `json:"shed,omitempty"`
	// Batch is the forward-pass batch size the request rode in (largest
	// across the samples of a batched predict).
	Batch int `json:"batch,omitempty"`
	// QueueMicros and ComputeMicros are the engine-side breakdown: time
	// queued before the batch flushed, and the batched forward-pass wall
	// time. On a gateway record they are the owning replica's reported
	// numbers from X-Dac-Server-Timing.
	QueueMicros   int64        `json:"queue_us,omitempty"`
	ComputeMicros int64        `json:"compute_us,omitempty"`
	Start         time.Time    `json:"start"`
	DurMicros     int64        `json:"dur_us"`
	Spans         []SpanRecord `json:"spans,omitempty"`
}

// RequestTrace accumulates one in-flight request's trace. It is created
// when the request arrives, annotated as the request moves through the
// process, and finished into a TraceRecord when the response is written.
// Methods are safe for concurrent use and no-ops on a nil receiver, so
// tracing threads through call chains without branching.
type RequestTrace struct {
	id    TraceID
	now   func() time.Time
	start time.Time

	mu  sync.Mutex
	rec TraceRecord
}

// NewRequestTrace starts a trace. A zero id mints a fresh one (the request
// arrived without trace context); a nil now selects the real clock (tests
// inject fake clocks for deterministic /tracez goldens).
func NewRequestTrace(id TraceID, now func() time.Time) *RequestTrace {
	if id.IsZero() {
		id = NewTraceID()
	}
	if now == nil {
		now = time.Now
	}
	t := &RequestTrace{id: id, now: now, start: now()}
	t.rec.TraceID = id.String()
	t.rec.Start = t.start
	return t
}

// ID returns the trace ID (zero for a nil trace).
func (t *RequestTrace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// Clock reads the trace's clock (zero time for a nil trace). Callers use
// it to time sections whose spans are added after the fact.
func (t *RequestTrace) Clock() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.now()
}

// SetHop records the attempt label this request arrived with.
func (t *RequestTrace) SetHop(hop string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rec.Hop = hop
	t.mu.Unlock()
}

// SetClient records the accounting client ID.
func (t *RequestTrace) SetClient(client string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rec.Client = client
	t.mu.Unlock()
}

// SetModel records the model the request targets.
func (t *RequestTrace) SetModel(model string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rec.Model = model
	t.mu.Unlock()
}

// SetDigest records the served release digest.
func (t *RequestTrace) SetDigest(digest string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rec.Digest = digest
	t.mu.Unlock()
}

// SetRetried flags that the request needed a second proxied attempt.
func (t *RequestTrace) SetRetried() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rec.Retried = true
	t.mu.Unlock()
}

// SetShed flags that the request was answered 503 for lack of capacity.
func (t *RequestTrace) SetShed() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rec.Shed = true
	t.mu.Unlock()
}

// SetBatch records the forward-pass batch size.
func (t *RequestTrace) SetBatch(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rec.Batch = n
	t.mu.Unlock()
}

// SetQueueCompute records the engine-side (or replica-reported) breakdown.
func (t *RequestTrace) SetQueueCompute(queue, compute time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rec.QueueMicros = queue.Microseconds()
	t.rec.ComputeMicros = compute.Microseconds()
	t.mu.Unlock()
}

// AddSpan records a completed span with an absolute start time (offsets
// are computed against the trace start).
func (t *RequestTrace) AddSpan(name string, start time.Time, dur time.Duration) {
	t.AddSpanDetail(name, "", start, dur)
}

// AddSpanDetail is AddSpan with an annotation (the replica ID on gateway
// attempt spans).
func (t *RequestTrace) AddSpanDetail(name, detail string, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rec.Spans = append(t.rec.Spans, SpanRecord{
		Name:        name,
		Detail:      detail,
		StartMicros: start.Sub(t.start).Microseconds(),
		DurMicros:   dur.Microseconds(),
	})
	t.mu.Unlock()
}

// TraceSpan is one open span on a request trace. The zero TraceSpan (from
// a nil trace) no-ops on End.
type TraceSpan struct {
	t     *RequestTrace
	name  string
	start time.Time
}

// StartSpan opens a span; End records it.
func (t *RequestTrace) StartSpan(name string) TraceSpan {
	if t == nil {
		return TraceSpan{}
	}
	return TraceSpan{t: t, name: name, start: t.now()}
}

// End closes the span and returns its duration (zero for a no-op span).
func (s TraceSpan) End() time.Duration {
	if s.t == nil {
		return 0
	}
	d := s.t.now().Sub(s.start)
	s.t.AddSpan(s.name, s.start, d)
	return d
}

// Finish closes the trace with the response status (and error message for
// locally synthesized failures) and returns the completed record. The
// trace must not be used afterwards.
func (t *RequestTrace) Finish(status int, errMsg string) TraceRecord {
	if t == nil {
		return TraceRecord{}
	}
	end := t.now()
	t.mu.Lock()
	t.rec.Status = status
	t.rec.Error = errMsg
	t.rec.DurMicros = end.Sub(t.start).Microseconds()
	rec := t.rec
	t.mu.Unlock()
	return rec
}

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// Default TraceBuffer capacities: recent ring, slowest set, error ring.
const (
	DefaultRecentTraces = 64
	DefaultSlowTraces   = 16
	DefaultErrorTraces  = 32
)

// TraceBuffer retains completed request traces in bounded storage: a ring
// of the most recent N, the slowest N seen so far, and a ring of the most
// recent error traces (status >= 400 or a synthesized error). One
// mutex-guarded append per completed request — never on the forward-pass
// hot path — keeps it cheap under load while /tracez readers take
// consistent snapshots. A nil *TraceBuffer no-ops on Add and snapshots
// empty, matching the nil-tracer contract.
type TraceBuffer struct {
	mu      sync.Mutex
	total   int64
	recent  []TraceRecord // ring, write cursor recentNext
	slow    []TraceRecord // sorted by DurMicros descending, capped
	errs    []TraceRecord // ring, write cursor errNext
	recentN int
	slowN   int
	errN    int
	recentNext,
	errNext int
	recentLen,
	errLen int
}

// NewTraceBuffer builds a buffer; non-positive capacities select the
// defaults.
func NewTraceBuffer(recentN, slowN, errN int) *TraceBuffer {
	if recentN <= 0 {
		recentN = DefaultRecentTraces
	}
	if slowN <= 0 {
		slowN = DefaultSlowTraces
	}
	if errN <= 0 {
		errN = DefaultErrorTraces
	}
	return &TraceBuffer{
		recent:  make([]TraceRecord, recentN),
		errs:    make([]TraceRecord, errN),
		recentN: recentN,
		slowN:   slowN,
		errN:    errN,
	}
}

// Add retains one completed trace, evicting the oldest recent/error
// entries and the fastest slow entry as the bounds require.
func (b *TraceBuffer) Add(rec TraceRecord) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.total++
	b.recent[b.recentNext] = rec
	b.recentNext = (b.recentNext + 1) % b.recentN
	if b.recentLen < b.recentN {
		b.recentLen++
	}
	if rec.Status >= 400 || rec.Error != "" {
		b.errs[b.errNext] = rec
		b.errNext = (b.errNext + 1) % b.errN
		if b.errLen < b.errN {
			b.errLen++
		}
	}
	if len(b.slow) < b.slowN || rec.DurMicros > b.slow[len(b.slow)-1].DurMicros {
		i := sort.Search(len(b.slow), func(i int) bool {
			return b.slow[i].DurMicros <= rec.DurMicros
		})
		b.slow = append(b.slow, TraceRecord{})
		copy(b.slow[i+1:], b.slow[i:])
		b.slow[i] = rec
		if len(b.slow) > b.slowN {
			b.slow = b.slow[:b.slowN]
		}
	}
}

// TracezSnapshot is the GET /tracez answer: recent and error traces
// newest-first, slowest traces by descending duration.
type TracezSnapshot struct {
	// Total counts every trace ever added, including evicted ones.
	Total   int64         `json:"total"`
	Recent  []TraceRecord `json:"recent"`
	Slowest []TraceRecord `json:"slowest"`
	Errors  []TraceRecord `json:"errors"`
}

// Snapshot returns a consistent copy of the buffer's contents.
func (b *TraceBuffer) Snapshot() TracezSnapshot {
	s := TracezSnapshot{Recent: []TraceRecord{}, Slowest: []TraceRecord{}, Errors: []TraceRecord{}}
	if b == nil {
		return s
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s.Total = b.total
	for i := 0; i < b.recentLen; i++ {
		s.Recent = append(s.Recent, b.recent[(b.recentNext-1-i+b.recentN)%b.recentN])
	}
	s.Slowest = append(s.Slowest, b.slow...)
	for i := 0; i < b.errLen; i++ {
		s.Errors = append(s.Errors, b.errs[(b.errNext-1-i+b.errN)%b.errN])
	}
	return s
}

// AccessLogger writes one structured JSON line per completed request: the
// TraceRecord minus its spans (trace ID, client, model, digest, status,
// batch size, queue/compute micros, retry and shed flags), so a failed or
// slow client call is greppable by trace ID against /tracez. A nil
// *AccessLogger no-ops.
type AccessLogger struct {
	mu sync.Mutex
	w  io.Writer
}

// NewAccessLogger wraps w; a nil writer returns a nil (no-op) logger.
func NewAccessLogger(w io.Writer) *AccessLogger {
	if w == nil {
		return nil
	}
	return &AccessLogger{w: w}
}

// OpenAccessLog resolves an -access-log flag value: "" disables (a nil
// writer), "-" is stdout, anything else appends to the named file.
func OpenAccessLog(dest string) (io.Writer, error) {
	switch dest {
	case "":
		return nil, nil
	case "-":
		return os.Stdout, nil
	default:
		f, err := os.OpenFile(dest, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, fmt.Errorf("open -access-log: %w", err)
		}
		return f, nil
	}
}

// Log writes rec as one JSON line. Marshal or write failures are dropped —
// logging must never fail a request.
func (l *AccessLogger) Log(rec TraceRecord) {
	if l == nil {
		return
	}
	rec.Spans = nil // access lines are flat; span detail lives in /tracez
	raw, err := json.Marshal(rec)
	if err != nil {
		return
	}
	l.mu.Lock()
	l.w.Write(append(raw, '\n'))
	l.mu.Unlock()
}

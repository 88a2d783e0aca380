package obs

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// Tracer accumulates hierarchical phase spans into a tree keyed by
// "/"-separated paths. It is safe for concurrent use (one mutex around the
// tree; spans are expected at phase granularity — epochs, batches, pipeline
// stages — not per-element, so the lock is never hot). A nil *Tracer is
// valid: every method no-ops and every span it hands out no-ops, which is
// how optional tracing threads through APIs without branching at call
// sites.
type Tracer struct {
	mu    sync.Mutex
	now   func() time.Time
	roots []*spanNode
	index map[string]*spanNode // root name → node
}

type spanNode struct {
	name     string
	count    int64
	total    time.Duration
	children []*spanNode
	index    map[string]*spanNode
}

// NewTracer returns an empty tracer using the real clock.
func NewTracer() *Tracer {
	return &Tracer{now: time.Now, index: map[string]*spanNode{}}
}

// SetNow replaces the tracer's clock; tests inject a fake clock to make
// span trees deterministic.
func (t *Tracer) SetNow(now func() time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.now = now
	t.mu.Unlock()
}

// child finds or creates the child of parent named name; parent == nil
// means a root. Caller holds t.mu.
func (t *Tracer) child(parent *spanNode, name string) *spanNode {
	idx := t.index
	if parent != nil {
		if parent.index == nil {
			parent.index = map[string]*spanNode{}
		}
		idx = parent.index
	}
	if n, ok := idx[name]; ok {
		return n
	}
	n := &spanNode{name: name}
	idx[name] = n
	if parent != nil {
		parent.children = append(parent.children, n)
	} else {
		t.roots = append(t.roots, n)
	}
	return n
}

// node resolves a "/"-separated path from the root, creating nodes as
// needed. Caller holds t.mu.
func (t *Tracer) node(path string) *spanNode {
	var n *spanNode
	for _, part := range strings.Split(path, "/") {
		n = t.child(n, part)
	}
	return n
}

// SpanHandle is one open span. The zero SpanHandle (from a nil or disabled
// tracer) no-ops on Child and End.
type SpanHandle struct {
	t     *Tracer
	n     *spanNode
	start time.Time
}

// Span opens a span at path (nested path segments separated by "/"). End
// must be called to record it.
func (t *Tracer) Span(path string) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	t.mu.Lock()
	n := t.node(path)
	start := t.now()
	t.mu.Unlock()
	return SpanHandle{t: t, n: n, start: start}
}

// Child opens a sub-span under s.
func (s SpanHandle) Child(name string) SpanHandle {
	if s.t == nil {
		return SpanHandle{}
	}
	s.t.mu.Lock()
	n := s.t.child(s.n, name)
	start := s.t.now()
	s.t.mu.Unlock()
	return SpanHandle{t: s.t, n: n, start: start}
}

// End closes the span, adding its wall time to the node. It returns the
// elapsed duration (zero for a no-op span).
func (s SpanHandle) End() time.Duration {
	if s.t == nil {
		return 0
	}
	s.t.mu.Lock()
	d := s.t.now().Sub(s.start)
	s.n.count++
	s.n.total += d
	s.t.mu.Unlock()
	return d
}

// Add folds a pre-measured section into the tree: total wall time over
// count calls at path. Sections timed with plain clock reads on a hot loop
// (the trainer accumulates per-step phase times and Adds them once per
// epoch) land in the same tree as live spans.
func (t *Tracer) Add(path string, total time.Duration, count int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	n := t.node(path)
	n.count += count
	n.total += total
	t.mu.Unlock()
}

// Report renders the span tree, children indented under parents in
// first-seen order: name, call count, total wall time, and mean per call.
func (t *Tracer) Report() string {
	var b strings.Builder
	t.WriteReport(&b)
	return b.String()
}

// WriteReport writes Report's output to w.
func (t *Tracer) WriteReport(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.roots) == 0 {
		fmt.Fprintln(w, "no spans recorded")
		return
	}
	fmt.Fprintf(w, "%-40s %10s %14s %14s\n", "span", "calls", "total", "mean")
	for _, n := range t.roots {
		writeNode(w, n, 0)
	}
}

// WriteFile writes the report to the file at path, or to stderr when path
// is "-". Write and close errors are returned, so a report lost to a full
// disk says so.
func (t *Tracer) WriteFile(path string) error {
	if path == "-" {
		t.WriteReport(os.Stderr)
		return nil
	}
	return os.WriteFile(path, []byte(t.Report()), 0o666)
}

func writeNode(w io.Writer, n *spanNode, depth int) {
	name := strings.Repeat("  ", depth) + n.name
	mean := time.Duration(0)
	if n.count > 0 {
		mean = n.total / time.Duration(n.count)
	}
	fmt.Fprintf(w, "%-40s %10d %14s %14s\n", name, n.count, n.total, mean)
	for _, c := range n.children {
		writeNode(w, c, depth+1)
	}
}

// Reset discards every recorded span (the clock is kept).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.roots = nil
	t.index = map[string]*spanNode{}
	t.mu.Unlock()
}

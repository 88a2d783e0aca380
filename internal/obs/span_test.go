package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock; tracers driven by it produce
// fully deterministic span trees.
type fakeClock struct {
	t time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestSpanTreeDeterministic(t *testing.T) {
	clock := newFakeClock()
	tr := NewTracer()
	tr.SetNow(clock.now)

	for epoch := 0; epoch < 2; epoch++ {
		ep := tr.Span("train/epoch")
		for step := 0; step < 3; step++ {
			fw := ep.Child("forward")
			clock.advance(10 * time.Millisecond)
			fw.End()
			bw := ep.Child("backward")
			clock.advance(20 * time.Millisecond)
			bw.End()
		}
		if d := ep.End(); d != 90*time.Millisecond {
			t.Fatalf("epoch %d duration = %v, want 90ms", epoch, d)
		}
	}
	tr.Add("train/epoch/optimizer", 12*time.Millisecond, 6)

	want := strings.Join([]string{
		"span                                          calls          total           mean",
		"train                                             0             0s             0s",
		"  epoch                                           2          180ms           90ms",
		"    forward                                       6           60ms           10ms",
		"    backward                                      6          120ms           20ms",
		"    optimizer                                     6           12ms            2ms",
		"",
	}, "\n")
	if got := tr.Report(); got != want {
		t.Fatalf("report mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// The same sequence of operations must render the same report.
	clock2 := newFakeClock()
	tr2 := NewTracer()
	tr2.SetNow(clock2.now)
	for epoch := 0; epoch < 2; epoch++ {
		ep := tr2.Span("train/epoch")
		for step := 0; step < 3; step++ {
			fw := ep.Child("forward")
			clock2.advance(10 * time.Millisecond)
			fw.End()
			bw := ep.Child("backward")
			clock2.advance(20 * time.Millisecond)
			bw.End()
		}
		ep.End()
	}
	tr2.Add("train/epoch/optimizer", 12*time.Millisecond, 6)
	if tr2.Report() != want {
		t.Fatal("identical span sequences rendered different reports")
	}
}

func TestNilTracerNoops(t *testing.T) {
	var tr *Tracer
	sp := tr.Span("a/b")
	child := sp.Child("c")
	if d := child.End(); d != 0 {
		t.Fatalf("nil tracer span elapsed %v, want 0", d)
	}
	sp.End()
	tr.Add("x", time.Second, 1)
	tr.SetNow(time.Now)
	tr.Reset()
	var b strings.Builder
	tr.WriteReport(&b)
	if b.Len() != 0 {
		t.Fatalf("nil tracer wrote a report: %q", b.String())
	}
}

// WriteFile writes Report's text to the file and returns the error of a
// file it could not write.
func TestTracerWriteFile(t *testing.T) {
	tr := NewTracer()
	tr.Add("core/train", time.Second, 2)
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != tr.Report() {
		t.Fatalf("file holds %q (%v), want the report %q", got, err, tr.Report())
	}
	if err := tr.WriteFile(filepath.Join(t.TempDir(), "missing", "trace.txt")); err == nil {
		t.Fatal("write into a missing directory reported no error")
	}
}

func TestTracerResetAndEmptyReport(t *testing.T) {
	tr := NewTracer()
	tr.Span("x").End()
	tr.Reset()
	if got := tr.Report(); got != "no spans recorded\n" {
		t.Fatalf("empty report = %q", got)
	}
}

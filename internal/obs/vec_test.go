package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
)

func TestCounterVecCardinalityCap(t *testing.T) {
	reg := NewRegistry()
	v := NewCounterVec(reg, "serve_client_requests_total", "client", 2)

	v.Get("alice").Inc()
	v.Get("bob").Inc()
	v.Get("bob").Inc()
	// Cap reached: every further distinct client shares the overflow series.
	v.Get("carol").Inc()
	v.Get("dave").Inc()
	// Known values keep resolving to their own series past the cap.
	v.Get("alice").Inc()

	snap := reg.Snapshot()
	if got := snap.Counters[`serve_client_requests_total{client="alice"}`]; got != 2 {
		t.Fatalf("alice = %d, want 2", got)
	}
	if got := snap.Counters[`serve_client_requests_total{client="bob"}`]; got != 2 {
		t.Fatalf("bob = %d, want 2", got)
	}
	if got := snap.Counters[`serve_client_requests_total{client="_other"}`]; got != 2 {
		t.Fatalf("overflow = %d, want 2 (carol+dave)", got)
	}
	if _, ok := snap.Counters[`serve_client_requests_total{client="carol"}`]; ok {
		t.Fatal("carol got her own series past the cap")
	}
}

func TestHistogramVecSharedBounds(t *testing.T) {
	reg := NewRegistry()
	v := NewHistogramVec(reg, "serve_client_latency_seconds", "client", 1, []float64{0.1, 1})
	v.Observe("alice", 0.05)
	v.Observe("bob", 0.5) // over the cap → overflow series

	snap := reg.Snapshot()
	a := snap.Histograms[`serve_client_latency_seconds{client="alice"}`]
	if a.Count != 1 || len(a.Bounds) != 2 {
		t.Fatalf("alice hist = %+v", a)
	}
	o := snap.Histograms[`serve_client_latency_seconds{client="_other"}`]
	if o.Count != 1 {
		t.Fatalf("overflow hist = %+v", o)
	}
}

// Vec lookups are concurrent with registration; run under -race by
// make race-fast.
func TestCounterVecConcurrent(t *testing.T) {
	reg := NewRegistry()
	v := NewCounterVec(reg, "c_total", "client", 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v.Get(fmt.Sprintf("client%d", i%12)).Inc()
			}
		}(w)
	}
	wg.Wait()
	total := int64(0)
	for name, n := range reg.Snapshot().Counters {
		_ = name
		total += n
	}
	if total != 400 {
		t.Fatalf("total across series = %d, want 400", total)
	}
}

// TestClientLabelsExposeAsValidPrometheus passes client IDs a hostile
// X-Dac-Client header can carry through ClientFrom into a counter vec. Every
// exposition line must be valid UTF-8 and use only the text format's \\,
// \" and \n escapes, and each label must unescape to its ClientFrom value.
func TestClientLabelsExposeAsValidPrometheus(t *testing.T) {
	headers := []string{
		"tab\there",
		`say "hi"`,
		`back\slash`,
		"line\nfeed",
		"Zoë 客户",
		strings.Repeat("a", 63) + "é", // the 64-byte cut falls inside é
		"raw\xffbyte",
	}
	reg := NewRegistry()
	v := NewCounterVec(reg, "c_total", "client", 0)
	want := map[string]bool{}
	for _, h := range headers {
		id := ClientFrom(h, "")
		if !utf8.ValidString(id) || len(id) > 64 {
			t.Fatalf("ClientFrom(%q) = %q, want valid UTF-8 of at most 64 bytes", h, id)
		}
		want[id] = true
		v.Get(id).Inc()
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if !utf8.ValidString(line) {
			t.Fatalf("line %q is not valid UTF-8", line)
		}
		if strings.HasPrefix(line, "# ") {
			continue
		}
		rest, ok1 := strings.CutPrefix(line, `c_total{client="`)
		value, ok2 := strings.CutSuffix(rest, `"} 1`)
		if !ok1 || !ok2 {
			t.Fatalf("line %q is not a c_total client series", line)
		}
		id, err := unescapeLabel(value)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		got[id] = true
	}
	if len(got) != len(want) {
		t.Fatalf("exposed %d client series, want %d", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("client %q not exposed", id)
		}
	}
}

// unescapeLabel reverses the text format's label-value escaping and fails
// on any other escape and on a bare quote or newline.
func unescapeLabel(s string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\n':
			return "", fmt.Errorf("unescaped %q at byte %d", c, i)
		case '\\':
			if i++; i == len(s) {
				return "", fmt.Errorf("trailing backslash")
			}
			switch s[i] {
			case '\\', '"':
				b.WriteByte(s[i])
			case 'n':
				b.WriteByte('\n')
			default:
				return "", fmt.Errorf("illegal escape \\%c", s[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return b.String(), nil
}

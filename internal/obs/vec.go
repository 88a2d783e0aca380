package obs

import (
	"strings"
	"sync"
)

// OverflowLabel is the label value unbounded input collapses into once a
// vec's cardinality cap is reached. Per-client series would otherwise let
// any client mint unbounded metric names by varying X-Dac-Client.
const OverflowLabel = "_other"

// DefaultMaxLabelValues is the cardinality cap a vec uses when none is
// given.
const DefaultMaxLabelValues = 64

// CounterVec is a family of counters keyed by one label with a hard
// cardinality cap: the first cap distinct values each get their own
// registered series ("name{label=\"value\"}"), every later value shares
// the OverflowLabel series. Get is a map lookup under a mutex — fine for
// per-request accounting, not for per-dispatch hot paths (cache the
// returned *Counter there).
type CounterVec struct {
	reg   *Registry
	name  string
	label string
	max   int

	mu    sync.Mutex
	known map[string]*Counter
}

// NewCounterVec builds a vec registering its series on reg. A
// non-positive max selects DefaultMaxLabelValues.
func NewCounterVec(reg *Registry, name, label string, max int) *CounterVec {
	if max <= 0 {
		max = DefaultMaxLabelValues
	}
	return &CounterVec{reg: reg, name: name, label: label, max: max, known: map[string]*Counter{}}
}

// Get returns the counter for value, creating and registering it if the
// cap allows and collapsing into the overflow series otherwise.
func (v *CounterVec) Get(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.known[value]; ok {
		return c
	}
	if len(v.known) >= v.max {
		value = OverflowLabel
		if c, ok := v.known[value]; ok {
			return c
		}
	}
	c := v.reg.Counter(SeriesName(v.name, v.label, value))
	v.known[value] = c
	return c
}

// HistogramVec is CounterVec's histogram twin: one bounded-cardinality
// histogram family over a shared bucket layout.
type HistogramVec struct {
	reg    *Registry
	name   string
	label  string
	max    int
	bounds []float64

	mu    sync.Mutex
	known map[string]*Histogram
}

// NewHistogramVec builds a vec whose histograms share bounds. A
// non-positive max selects DefaultMaxLabelValues.
func NewHistogramVec(reg *Registry, name, label string, max int, bounds []float64) *HistogramVec {
	if max <= 0 {
		max = DefaultMaxLabelValues
	}
	return &HistogramVec{reg: reg, name: name, label: label, max: max, bounds: bounds, known: map[string]*Histogram{}}
}

// Get returns the histogram for value under the same cap rule as
// CounterVec.Get.
func (v *HistogramVec) Get(value string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.known[value]; ok {
		return h
	}
	if len(v.known) >= v.max {
		value = OverflowLabel
		if h, ok := v.known[value]; ok {
			return h
		}
	}
	h := v.reg.Histogram(SeriesName(v.name, v.label, value), v.bounds)
	v.known[value] = h
	return h
}

// Observe records one value into the histogram for the label value.
func (v *HistogramVec) Observe(value string, x float64) { v.Get(value).Observe(x) }

// SeriesName renders name{label="value"} — the label syntax the exposition
// layer splits back apart. The value is made valid UTF-8 and escaped by the
// Prometheus text format's rules, which know only \\, \" and \n: Go's %q
// would also emit \t or \x.. escapes that make every scrape fail to parse.
// An empty name renders the bare label block, to append to several names.
func SeriesName(name, label, value string) string {
	return name + "{" + label + `="` + labelEscaper.Replace(strings.ToValidUTF8(value, "\uFFFD")) + `"}`
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

package obs

import (
	"fmt"
	"sync"
)

// Registry maps metric names to live metric instances. Names may carry a
// Prometheus-style label suffix, e.g.
//
//	serve_requests_served_total{model="prod"}
//
// which the exposition layer splits back into base name and labels; the
// registry itself treats the whole string as the key. Lookups take a
// read-lock; instrumentation sites are expected to look a metric up once
// and cache the pointer, so the registry is never on a hot path.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it if needed.
// Registering the same name as a different metric kind panics.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	r.checkFree(name, "counter")
	c = NewCounter()
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	r.checkFree(name, "gauge")
	g = NewGauge()
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds if needed. An existing registration wins; its
// bounds are kept even if they differ from the ones passed here.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	r.checkFree(name, "histogram")
	h = NewHistogram(bounds)
	r.hists[name] = h
	return h
}

// checkFree panics if name is taken by another metric kind (caller holds
// the write lock).
func (r *Registry) checkFree(name, kind string) {
	if _, ok := r.counters[name]; ok && kind != "counter" {
		panic(fmt.Sprintf("obs: %q already registered as a counter", name))
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic(fmt.Sprintf("obs: %q already registered as a gauge", name))
	}
	if _, ok := r.hists[name]; ok && kind != "histogram" {
		panic(fmt.Sprintf("obs: %q already registered as a histogram", name))
	}
}

// RegisterCounter installs c under name, replacing any existing counter.
// Replacement is what a hot-swapped serving engine wants: the new engine's
// fresh counters take over the name while the old engine keeps its detached
// instances until it drains.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkFree(name, "counter")
	r.counters[name] = c
}

// RegisterGauge installs g under name, replacing any existing gauge.
func (r *Registry) RegisterGauge(name string, g *Gauge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkFree(name, "gauge")
	r.gauges[name] = g
}

// RegisterHistogram installs h under name, replacing any existing histogram.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkFree(name, "histogram")
	r.hists[name] = h
}

// Unregister removes the metric registered under name, but only when the
// registered instance is m (identity check). The check makes removal safe
// around hot swaps: an old engine tearing down after its replacement
// registered fresh metrics under the same names must not take those down.
// It reports whether a metric was removed.
func (r *Registry) Unregister(name string, m any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch v := m.(type) {
	case *Counter:
		if r.counters[name] == v {
			delete(r.counters, name)
			return true
		}
	case *Gauge:
		if r.gauges[name] == v {
			delete(r.gauges, name)
			return true
		}
	case *Histogram:
		if r.hists[name] == v {
			delete(r.hists, name)
			return true
		}
	}
	return false
}

// Snapshot is a point-in-time view of every registered metric, with
// deterministic (sorted) iteration order via the sorted name slices.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures all registered metrics. Values are read atomically per
// metric; the set of metrics is consistent under the registry lock.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}

// Reset zeroes every registered metric in place (registrations and cached
// pointers stay valid). Tests use it to isolate assertions against the
// shared Default registry.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
}

package serve

import (
	"time"

	"repro/internal/obs"
)

// DefaultLatencyBuckets are the per-batch forward-latency histogram bounds
// (seconds) every engine uses: 0.5ms doubling up to ~1s.
var DefaultLatencyBuckets = obs.ExpBuckets(0.0005, 2, 12)

// EngineStats tracks one model engine's serving counters on an obs
// registry. Every engine owns fresh metric instances — updates are
// lock-free atomics, so the hot path never contends with /statsz or
// /metricsz readers — and publishes them under model-labeled series names
// with replace semantics: a hot-swapped engine's series restart from zero
// (an ordinary counter reset to a scraper) while the old engine keeps its
// detached instances until it drains.
type EngineStats struct {
	reg *obs.Registry
	// series maps registered name → the instance this engine registered,
	// for identity-checked unregistration (Registry.Remove): if a hot swap
	// already replaced the registration, unregister leaves it alone.
	series map[string]any

	accepted *obs.Counter // samples that made it into the queue
	served   *obs.Counter // samples answered by a forward pass
	rejected *obs.Counter // samples fast-failed with ErrQueueFull
	errored  *obs.Counter // samples answered with a model error

	// batchSize has one exact bucket per size 1..MaxBatch, so the
	// /statsz batch_hist map is reconstructed without loss.
	batchSize *obs.Histogram
	// latency holds per-batch forward latency in seconds.
	latency *obs.Histogram
}

func newEngineStats(model string, opts Options) *EngineStats {
	reg := opts.Obs
	if reg == nil {
		reg = obs.Default
	}
	s := &EngineStats{
		reg:       reg,
		series:    map[string]any{},
		accepted:  obs.NewCounter(),
		served:    obs.NewCounter(),
		rejected:  obs.NewCounter(),
		errored:   obs.NewCounter(),
		batchSize: obs.NewHistogram(obs.LinearBuckets(1, 1, opts.MaxBatch)),
		latency:   obs.NewHistogram(DefaultLatencyBuckets),
	}
	lbl := ""
	if model != "" {
		lbl = obs.SeriesName("", "model", model)
	}
	for name, c := range map[string]*obs.Counter{
		"serve_requests_accepted_total" + lbl: s.accepted,
		"serve_requests_served_total" + lbl:   s.served,
		"serve_requests_rejected_total" + lbl: s.rejected,
		"serve_requests_errored_total" + lbl:  s.errored,
	} {
		reg.RegisterCounter(name, c)
		s.series[name] = c
	}
	for name, h := range map[string]*obs.Histogram{
		"serve_batch_size" + lbl:            s.batchSize,
		"serve_batch_latency_seconds" + lbl: s.latency,
	} {
		reg.RegisterHistogram(name, h)
		s.series[name] = h
	}
	return s
}

// unregister removes this engine's series from the shared registry. The
// identity check leaves a hot-swap replacement's series (same names, newer
// instances) in place.
func (s *EngineStats) unregister() {
	for name, m := range s.series {
		s.reg.Unregister(name, m)
	}
}

func (s *EngineStats) recordAccepted(n int) { s.accepted.Add(int64(n)) }

func (s *EngineStats) recordRejected(n int) { s.rejected.Add(int64(n)) }

func (s *EngineStats) recordBatch(size int, lat time.Duration) {
	s.served.Add(int64(size))
	s.batchSize.Observe(float64(size))
	s.latency.Observe(lat.Seconds())
}

func (s *EngineStats) recordError(size int) { s.errored.Add(int64(size)) }

// Snapshot is the JSON form of one engine's counters.
type Snapshot struct {
	// Accepted counts samples that entered the queue; Served of those were
	// answered by a forward pass, Errored with model errors. Rejected counts
	// the samples of backpressure fast-failures (429s).
	Accepted int64 `json:"accepted"`
	Served   int64 `json:"served"`
	Errored  int64 `json:"errored,omitempty"`
	Rejected int64 `json:"rejected"`
	// Batches is the number of forward passes; BatchHist maps batch size to
	// how many passes ran at that size (zero-count sizes omitted).
	Batches   int64         `json:"batches"`
	BatchHist map[int]int64 `json:"batch_hist,omitempty"`
	MeanBatch float64       `json:"mean_batch"`
	// QueueDepth is the queue length at snapshot time.
	QueueDepth int `json:"queue_depth"`
	// MeanLatencyMS and MaxLatencyMS describe per-batch forward latency.
	MeanLatencyMS float64 `json:"mean_latency_ms"`
	MaxLatencyMS  float64 `json:"max_latency_ms"`
}

func (s *EngineStats) snapshot(queueDepth int) Snapshot {
	bh := s.batchSize.Snapshot()
	lh := s.latency.Snapshot()
	snap := Snapshot{
		Accepted:   s.accepted.Value(),
		Served:     s.served.Value(),
		Errored:    s.errored.Value(),
		Rejected:   s.rejected.Value(),
		Batches:    bh.Count,
		QueueDepth: queueDepth,
	}
	// The size histogram's buckets are exact (bound i+1 holds size i+1);
	// the overflow bucket stays empty because flush never exceeds MaxBatch.
	for i, n := range bh.Counts[:len(bh.Bounds)] {
		if n > 0 {
			if snap.BatchHist == nil {
				snap.BatchHist = make(map[int]int64)
			}
			snap.BatchHist[i+1] = n
		}
	}
	if snap.Batches > 0 {
		snap.MeanBatch = float64(snap.Served+snap.Errored) / float64(snap.Batches)
	}
	if lh.Count > 0 {
		snap.MeanLatencyMS = lh.Sum / float64(lh.Count) * 1e3
		snap.MaxLatencyMS = lh.Max * 1e3
	}
	return snap
}

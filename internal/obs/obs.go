// Package obs is the repo's observability layer: a dependency-free metrics
// registry (counters, gauges, fixed-bucket histograms), hierarchical phase
// spans, and text exposition in Prometheus and JSON formats. Every
// performance-sensitive subsystem — the compute worker pool, the training
// loop, the attack pipeline, the serving engines — reports through it, so
// perf work is measured against one shared surface instead of per-package
// one-offs.
//
// # Hot-path contract
//
// Instrumentation sites on hot paths (compute dispatches, per-step training
// sections) are gated on the process-wide Enabled flag: disabled, they cost
// one atomic load; enabled, they cost a couple of monotonic clock reads and
// atomic adds per dispatch — `make obs-bench` guards the enabled overhead at
// under 2% of an uninstrumented forward pass. Metric updates themselves
// (Counter.Add, Histogram.Observe) are lock-free atomics and safe for
// concurrent use from any goroutine.
//
// Always-on product metrics (the serving engines' request counters, which
// predate this package and back the /statsz endpoint) ignore the flag: they
// are recorded once per batch, not per dispatch, and their absence would
// change user-visible behaviour.
//
// # Spans
//
// Spans record wall time and call counts in a tree keyed by "/"-separated
// paths:
//
//	sp := tracer.Span("train/epoch")
//	fw := sp.Child("forward")
//	...
//	fw.End()
//	sp.End()
//
// A nil *Tracer is valid everywhere and makes every span a no-op, so callers
// thread an optional tracer without branching. Batch-accumulated sections
// (the training loop times its per-step phases with plain clock reads and
// folds them into the tree once per epoch via Tracer.Add) land in the same
// tree as live spans.
package obs

import "sync/atomic"

// enabled gates the hot-path instrumentation sites (see the package
// comment). Process-wide because the instrumented code (compute.Ctx) is
// shared process-wide too.
var enabled atomic.Bool

// Enable turns hot-path metric collection on or off. Commands flip it on
// when the user asks for observability (-trace-out, dacserve's -obs);
// everything else runs with the near-zero disabled cost.
func Enable(on bool) { enabled.Store(on) }

// Enabled reports whether hot-path metric collection is on.
func Enabled() bool { return enabled.Load() }

// Default is the process-wide registry. Instrumented packages record into
// it; dacserve's /metricsz endpoint exposes it.
var Default = NewRegistry()

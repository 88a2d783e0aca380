// Package serve turns released model files into a concurrently served
// inference endpoint — the deployment half of the paper's threat model.
// dacrelease writes a model file; this package is what a model marketplace
// or MLaaS provider would run on top of it: a registry of loaded models
// (full-precision and quantized alike), a micro-batching engine that
// coalesces concurrent prediction requests into shared forward passes, and
// an HTTP JSON API that also exposes the paper's defender-side audit so a
// data holder can inspect a model for embedded payloads before putting it
// in front of users.
//
// # Bit-reproducibility under batching
//
// Serving must not perturb the numbers the threat-model evaluation is built
// on: a prediction's logits are the same whether the request rode alone or
// was coalesced into a batch, and the same for every engine thread count.
// Two properties make that hold: nn.Model.EvalBatch is per-sample
// bit-identical to single-sample evaluation (batching only packs tensors),
// and the compute package's determinism contract makes each forward
// bit-identical across worker counts. Batch composition under load is
// timing-dependent; the answers are not.
//
// # Concurrency model
//
// Each registered model owns one engine goroutine and one compute.Ctx; the
// engine goroutine is the context's only driver (a compute.Ctx must never
// have two). A request's samples enter a bounded channel queue together,
// and the request is answered once, when its last sample is. The queue
// bound is the backpressure mechanism: when it lacks room for a request,
// Submit fails fast with ErrQueueFull and the HTTP layer answers 429
// instead of letting latency grow without bound.
package serve

import (
	"errors"

	"repro/internal/artifact"
	"repro/internal/obs"
)

// Options configure a Registry and the per-model batching engines it
// creates.
type Options struct {
	// MaxBatch is the largest number of samples coalesced into one forward
	// pass. <= 0 selects 16.
	MaxBatch int
	// QueueDepth bounds each model's queue in samples; a request with more
	// samples than there are free slots fails fast with ErrQueueFull. <= 0
	// selects 256.
	QueueDepth int
	// Threads is the worker count of each model engine's compute context
	// (0 = GOMAXPROCS). Responses are bit-identical for every value.
	Threads int
	// NativeQuant makes ModeAuto loads serve quantized releases
	// codebook-native: eval runs LUT kernels over the release's uint8
	// indices and the float weight copies are never materialized. Logits
	// are bit-identical to dequantized serving; resident model bytes are
	// strictly lower. Full-precision releases are unaffected.
	NativeQuant bool
	// Obs is the observability registry serving metrics are published to.
	// nil selects obs.Default (what /metricsz exposes).
	Obs *obs.Registry
	// Store is the content-addressed artifact store released models are
	// distributed through: Registry.LoadDigest and the HTTP
	// /v1/models/{name}:load endpoint pull releases from it by digest.
	// nil disables digest loads (they fail with ErrNoStore).
	Store *artifact.Store
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 16
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.Obs == nil {
		o.Obs = obs.Default
	}
	return o
}

var (
	// ErrQueueFull is the backpressure signal: the model's bounded request
	// queue is at capacity. The HTTP layer maps it to 429.
	ErrQueueFull = errors.New("serve: request queue full")
	// ErrClosed reports a submission to an engine that has been shut down
	// (or hot-swapped away). The HTTP layer maps it to 503.
	ErrClosed = errors.New("serve: engine closed")
	// ErrNonFinite reports a request with a sample whose logits overflowed
	// to ±Inf or NaN, which JSON cannot carry. The HTTP layer maps it to 400.
	ErrNonFinite = errors.New("serve: input drives the logits out of float64 range")
)

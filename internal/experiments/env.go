// Package experiments contains one driver per table and figure of the
// paper's evaluation (Tables I-IV, Figs 2-5) plus the ablations called out
// in DESIGN.md. Each driver builds its workloads, runs the core attack
// flow, and renders the same rows/series the paper reports. Results are
// memoized within an Env so composite experiments (Fig 4 reuses Table I and
// Table III runs) do not retrain models.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/obs"
)

// Env carries the shared experiment context.
type Env struct {
	// Seed drives every dataset and training run.
	Seed int64
	// Quick shrinks datasets and epochs for smoke tests and benchmarks;
	// the full configuration reproduces EXPERIMENTS.md.
	Quick bool
	// Out receives the rendered tables and figures. nil discards.
	Out io.Writer
	// Log receives training progress. nil keeps runs quiet.
	Log io.Writer
	// OutDir, when non-empty, receives image artifacts (Fig 5 PGM strips).
	OutDir string
	// Threads is the worker count for every training/evaluation pass
	// (0 = runtime.GOMAXPROCS, 1 = serial). Results are bit-identical
	// for every value, so experiment outputs never depend on it.
	Threads int
	// Trace, when non-nil, receives phase spans from every core.Run the
	// experiments execute (see core.Config.Trace).
	Trace *obs.Tracer
	// Cache, when non-nil, runs every pipeline through the persistent
	// artifact store (see core.Config.Cache), so sweeps that share a
	// training prefix compute it once and repeat invocations reuse
	// results across processes — the in-memory memoizer only covers one
	// process.
	Cache *artifact.Store
	// Resume, when true and Cache is set, lets interrupted training runs
	// continue from their latest epoch checkpoint.
	Resume bool
	// Dist, when non-nil, trains every run across the session's process
	// group (see core.Config.Dist). Coordinator and workers execute the
	// same experiment sequence; because runs are issued deterministically,
	// the ranks meet at each training run in order.
	Dist *dist.Session
	// Shards is the per-batch gradient shard count (see core.Config.Shards).
	Shards int

	cache map[string]*core.Result
	data  map[string]*dataset.Dataset
}

// NewEnv builds an experiment environment.
func NewEnv(seed int64, quick bool, out io.Writer) *Env {
	return &Env{Seed: seed, Quick: quick, Out: out,
		cache: make(map[string]*core.Result),
		data:  make(map[string]*dataset.Dataset),
	}
}

func (e *Env) out() io.Writer {
	if e.Out == nil {
		return io.Discard
	}
	return e.Out
}

// run memoizes core.Run by key.
func (e *Env) run(key string, cfg core.Config) *core.Result {
	if r, ok := e.cache[key]; ok {
		return r
	}
	if e.Log != nil {
		fmt.Fprintf(e.Log, "== run %s\n", key)
		cfg.Log = e.Log
	}
	cfg.Trace = e.Trace
	cfg.Cache = e.Cache
	cfg.Resume = e.Resume
	cfg.Dist = e.Dist
	cfg.Shards = e.Shards
	r := core.Run(cfg)
	e.cache[key] = r
	return r
}

// epochs returns the training budget.
func (e *Env) epochs() int {
	if e.Quick {
		return 2
	}
	return 25
}

func (e *Env) cifarN() int {
	if e.Quick {
		return 320
	}
	return 1200
}

// CIFARGray returns the grayscale CIFAR-like dataset (memoized).
func (e *Env) CIFARGray() *dataset.Dataset {
	return e.dataset("cifar-gray", func() *dataset.Dataset {
		return dataset.SyntheticCIFAR(e.cifarCfg(false))
	})
}

// CIFARRGB returns the RGB CIFAR-like dataset (memoized).
func (e *Env) CIFARRGB() *dataset.Dataset {
	return e.dataset("cifar-rgb", func() *dataset.Dataset {
		return dataset.SyntheticCIFAR(e.cifarCfg(true))
	})
}

func (e *Env) cifarCfg(rgb bool) dataset.CIFARConfig {
	cfg := core.CIFARRelease().DataConfig(e.cifarN(), e.Seed+100)
	cfg.RGB = rgb
	return cfg
}

// Faces returns the synthetic face dataset (memoized).
func (e *Env) Faces() *dataset.Dataset {
	return e.dataset("faces", func() *dataset.Dataset {
		ids, per := 20, 30
		if e.Quick {
			ids, per = 6, 10
		}
		return dataset.SyntheticFaces(dataset.DefaultFaces(ids, per, e.Seed+200))
	})
}

func (e *Env) dataset(key string, build func() *dataset.Dataset) *dataset.Dataset {
	if d, ok := e.data[key]; ok {
		return d
	}
	d := build()
	e.data[key] = d
	return d
}

// cifarModel returns the MiniResNet config for a CIFAR-like dataset.
func (e *Env) cifarModel(channels int) nn.ResNetConfig {
	cfg := core.CIFARRelease().ArchConfig(e.Seed + 300)
	cfg.InC = channels
	return cfg
}

// faceModel returns the MiniResNet config for the face dataset.
func (e *Env) faceModel(classes int) nn.ResNetConfig {
	return nn.ResNetConfig{
		InC: 1, InH: 24, InW: 24, Classes: classes,
		Widths: []int{6, 12, 24}, Blocks: []int{2, 2, 2},
		Seed: e.Seed + 301,
	}
}

// groupBounds is the conv-index partition mirroring the paper's ResNet-34
// grouping (early feature extractors / middle / payload-carrying tail).
var groupBounds = core.CIFARRelease().GroupBounds

// baseCfg assembles the shared training configuration.
func (e *Env) baseCfg(d *dataset.Dataset, model nn.ResNetConfig) core.Config {
	return core.Config{
		Data: d, ModelCfg: model,
		Epochs: e.epochs(), BatchSize: 32,
		LR: 0.05, Momentum: 0.9, ClipNorm: 5,
		Seed: e.Seed, FineTuneEpochs: 3,
		Threads: e.Threads,
	}
}

// vanillaCfg is the uniform Eq 1 attack: one group over all weights, no
// pre-processing.
func (e *Env) vanillaCfg(d *dataset.Dataset, model nn.ResNetConfig, lambda float64, quant core.QuantMode, bits int) core.Config {
	cfg := e.baseCfg(d, model)
	cfg.Lambdas = []float64{lambda}
	cfg.Quant = quant
	cfg.Bits = bits
	return cfg
}

// proposedCfg is the paper's full flow: layer groups with λ1=λ2=0, std
// window pre-processing, and (optionally) target-correlated quantization
// with the regularizer kept on during fine-tuning.
func (e *Env) proposedCfg(d *dataset.Dataset, model nn.ResNetConfig, lambda3 float64, quant core.QuantMode, bits int) core.Config {
	cfg := e.baseCfg(d, model)
	cfg.GroupBounds = groupBounds
	cfg.Lambdas = []float64{0, 0, lambda3}
	cfg.WindowLen = 5
	cfg.Quant = quant
	cfg.Bits = bits
	cfg.KeepRegDuringFineTune = quant == core.QuantTargetCorrelated
	return cfg
}

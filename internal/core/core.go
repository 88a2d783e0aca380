// Package core implements the paper's quantized correlation encoding attack
// flow (Fig 1) end to end: data pre-processing (std-window target
// selection), training with the layer-wise correlation regularizer (Eq 2),
// target-correlated quantization (Algorithm 1) with fine-tuning, and the
// adversary's extraction pass over the released model. It also runs the
// baseline configurations the evaluation compares against: the benign
// pipeline, the vanilla uniform-rate attack (Eq 1), and the vanilla attack
// followed by default weighted-entropy quantization.
package core

import (
	"fmt"
	"io"

	"repro/internal/artifact"
	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/img"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/quantize"
)

// QuantMode selects the compression step of the pipeline.
type QuantMode int

const (
	// QuantNone releases the full-precision model.
	QuantNone QuantMode = iota
	// QuantWEQ applies weighted-entropy quantization per layer (the
	// paper's default existing compression).
	QuantWEQ
	// QuantLinear applies deep-compression style linear quantization per
	// layer (a secondary baseline).
	QuantLinear
	// QuantTargetCorrelated applies Algorithm 1 to every encoding group
	// (shared codebook per group, boundaries from the target pixel
	// histogram) and weighted-entropy quantization to the remaining
	// layers.
	QuantTargetCorrelated
)

// String returns the mode's report label.
func (m QuantMode) String() string {
	switch m {
	case QuantNone:
		return "none"
	case QuantWEQ:
		return "weq"
	case QuantLinear:
		return "linear"
	case QuantTargetCorrelated:
		return "target-correlated"
	default:
		return fmt.Sprintf("QuantMode(%d)", int(m))
	}
}

// Config describes one end-to-end experiment.
type Config struct {
	// Data is the full dataset; it is split into train/test internally,
	// holding out a fifth of it for testing.
	Data *dataset.Dataset

	// ModelCfg configures the MiniResNet the pipeline trains.
	ModelCfg nn.ResNetConfig

	// GroupBounds are conv-index bounds defining the layer groups
	// (paper: [12, 16] for ResNet-34). nil means a single group.
	GroupBounds []int
	// Lambdas are per-group correlation rates λ_k, parallel to the
	// groups. All-zero (or nil) trains a benign model.
	Lambdas []float64
	// WindowLen is the std-window length d of the pre-processing step.
	// <= 0 disables pre-processing: targets are drawn uniformly from the
	// training set (the vanilla Eq 1 behaviour).
	WindowLen float64

	// Epochs, BatchSize, LR, Momentum, ClipNorm configure training.
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	ClipNorm  float64
	// Seed drives every random choice in the pipeline.
	Seed int64
	// Threads is the worker count for the execution context every model
	// pass (training, fine-tuning, evaluation, extraction-side forward)
	// runs under. 0 selects runtime.GOMAXPROCS; 1 forces serial. All
	// results are bit-identical across thread counts.
	Threads int
	// Shards is the trainer's semantic data-parallel knob: gradient
	// shards per batch (see train.Config.Shards). 0 defaults to 1, or to
	// Dist.Procs() when a dist session is attached. Shards > 1 changes
	// the result (shard-local batch-norm statistics, shard-order
	// reduction) and therefore enters the train cache key; the process
	// count never does.
	Shards int
	// Dist, when non-nil, runs the train stage across this session's
	// process group: batches are sharded across ranks and gradient
	// partials exchanged over the session's connections. Worker ranks
	// (Dist.Worker()) run the pipeline only through the train stage —
	// their role ends once the coordinator has the jointly trained model —
	// and skip quantize/finetune/extract. Results are byte-identical to a
	// single-process run with the same Shards.
	Dist *dist.Session

	// DecodeMean and DecodeStd are the domain pixel statistics the
	// adversary's extraction moment-matches to. They are part of the
	// attack algorithm (chosen when the pre-processing was designed, from
	// public knowledge of the data domain), not learned from the
	// training run. Zero values default to mean 128 and, when a std
	// window is used, the window midpoint (else 50).
	DecodeMean, DecodeStd float64

	// Quant selects the compression step; Bits sets the codebook size to
	// 2^Bits levels.
	Quant QuantMode
	Bits  int
	// FineTuneEpochs runs post-quantization centroid fine-tuning.
	FineTuneEpochs int
	// FineTuneLR overrides the fine-tuning rate (default LR/10).
	FineTuneLR float64
	// KeepRegDuringFineTune keeps the correlation penalty active during
	// fine-tuning. The malicious flow (whose quantizer and fine-tuner
	// ship together) sets this; the "vanilla attack + default WEQ"
	// baseline does not, because there the fine-tuner is the benign
	// default one.
	KeepRegDuringFineTune bool

	// Log, when non-nil, receives progress lines — including the trainer's
	// per-epoch lines, formatted by train.LogTo.
	Log io.Writer
	// Trace, when non-nil, receives phase spans for the whole pipeline
	// (core/split, core/preprocess, core/train, core/quantize,
	// core/finetune, core/extract) plus the trainer's per-epoch breakdown.
	Trace *obs.Tracer

	// Cache, when non-nil, persists stage outputs into the store and
	// reuses them on later runs with matching cache keys (see pipeline.go
	// for the stage graph and key derivation). Mid-training epoch
	// checkpoints are also written (cadence CheckpointEvery) so
	// interrupted runs can resume.
	Cache *artifact.Store
	// Resume, when true and Cache is set, probes the store for the latest
	// mid-training epoch checkpoint of this exact configuration and
	// continues training from it — bit-identically to an uninterrupted
	// run — instead of starting over. A full train artifact still wins
	// over any partial checkpoint.
	Resume bool
	// CheckpointEvery sets the mid-training checkpoint cadence in epochs
	// when Cache is set: 0 defaults to 5, negative disables.
	CheckpointEvery int
}

// Result captures everything the evaluation tables need from one run.
type Result struct {
	// Model is the released model (after quantization, if any).
	Model *nn.Model
	// Groups are the layer groups the run used.
	Groups []nn.LayerGroup
	// Plan is the encoding plan (nil for benign runs).
	Plan *attack.Plan
	// Reg is the correlation regularizer (nil for benign runs).
	Reg *attack.CorrelationReg
	// TrainAcc and TestAcc are accuracies of the released model.
	TrainAcc, TestAcc float64
	// PreQuantTestAcc is the accuracy before the quantization step
	// (equal to TestAcc when Quant == QuantNone).
	PreQuantTestAcc float64
	// Score aggregates reconstruction quality over all encoded images.
	Score attack.Score
	// PerGroup holds one score per encoding group (empty groups skipped).
	PerGroup []attack.Score
	// Recon are the extracted images, aligned with Plan.AllImages().
	Recon []*img.Image
	// Applied records the quantization (nil when Quant == QuantNone).
	Applied *quantize.Applied
}

// Run executes the pipeline described by cfg: the stage graph
//
//	split → preprocess → train → quantize → finetune → extract
//
// defined in pipeline.go. Without a Cache every stage recomputes, exactly
// as the monolithic flow did; with one, each stage first probes the store
// under its deterministic cache key and only computes (then persists) on
// a miss.
func Run(cfg Config) *Result {
	if cfg.Data == nil {
		panic("core: Config.Data is required")
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 32
	}
	if cfg.LR == 0 {
		cfg.LR = 0.05
	}
	if cfg.Bits == 0 {
		cfg.Bits = 4
	}
	// Resolve the shard count up front so the cache key and the trainer
	// agree on it: with a dist session the default is one shard per
	// process, and a single process runs one shard.
	if cfg.Shards <= 0 {
		cfg.Shards = 1
		if cfg.Dist != nil {
			cfg.Shards = cfg.Dist.Procs()
		}
	}

	m := nn.NewResNet(cfg.ModelCfg)
	groups := m.GroupsByConvIndex(cfg.GroupBounds)
	lambdas := cfg.Lambdas
	if lambdas == nil {
		lambdas = make([]float64, len(groups))
	}
	if len(lambdas) != len(groups) {
		panic(fmt.Sprintf("core: %d lambdas for %d groups", len(lambdas), len(groups)))
	}

	p := &pipeline{
		cfg: cfg, store: cfg.Cache,
		m: m, groups: groups, lambdas: lambdas,
		res:  &Result{Model: m, Groups: groups},
		keys: make(map[string]string),
	}
	for _, st := range stages() {
		workerTrain := st.name == "train" && p.distWorker()
		if workerTrain {
			// The coordinator's verdict, read in train.Run, decides
			// whether a worker trains or loads the run from the shared
			// cache, so a worker neither probes nor writes this stage's
			// cache entry.
			st.kinds = nil
		}
		p.exec(st)
		if workerTrain {
			// A worker's job ends with the jointly trained model: the
			// downstream stages (quantize, finetune, extract) run only on
			// the coordinator, whose process owns the run's outputs.
			break
		}
	}
	return p.res
}

// uniformPlanOverActive builds the vanilla Eq 1 style plan: every active
// group draws targets uniformly from the whole training set.
func uniformPlanOverActive(d *dataset.Dataset, groups []nn.LayerGroup, lambdas []float64, seed int64) *attack.Plan {
	plan := &attack.Plan{
		Window:    attack.Window{Lo: 0, Hi: 1e18},
		ImageGeom: [3]int{d.C, d.H, d.W},
	}
	for gi, g := range groups {
		sub := attack.UniformPlan(d, g, lambdas[gi], seed+int64(gi))
		pg := sub.Groups[0]
		pg.GroupIndex = gi
		if lambdas[gi] == 0 {
			pg = attack.PlanGroup{GroupIndex: gi}
		}
		plan.Groups = append(plan.Groups, pg)
	}
	return plan
}

// targetCorrelatedQuantize applies Algorithm 1 to every encoding group —
// per layer, so each layer keeps its own scale, with cluster boundaries
// from the group's target-image histogram — and weighted-entropy
// quantization to all remaining weight parameters per layer. Per-layer
// codebooks are how quantized models ship in practice, and the correlation
// survives because every layer's payload slice follows the same target
// pixel distribution the histogram describes.
func targetCorrelatedQuantize(m *nn.Model, groups []nn.LayerGroup, plan *attack.Plan, levels int) *quantize.Applied {
	a := &quantize.Applied{}
	covered := make(map[*nn.Param]bool)
	for _, pg := range plan.Groups {
		if len(pg.Images) == 0 {
			continue
		}
		g := groups[pg.GroupIndex]
		a.QuantizePerLayer(g.Params, quantize.TargetCorrelated{Targets: pg.Images}, levels)
		for _, p := range g.Params {
			covered[p] = true
		}
	}
	var rest []*nn.Param
	for _, p := range m.WeightParams() {
		if !covered[p] {
			rest = append(rest, p)
		}
	}
	if len(rest) > 0 {
		a.QuantizePerLayer(rest, quantize.WeightedEntropy{}, levels)
	}
	return a
}

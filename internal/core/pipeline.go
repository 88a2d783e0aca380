package core

import (
	"errors"
	"fmt"
	"io"
	"io/fs"

	"repro/internal/artifact"
	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/quantize"
	"repro/internal/tensor"
	"repro/internal/train"
)

// The pipeline is an explicit stage graph:
//
//	split → preprocess → train → quantize → finetune → extract
//
// Each stage declares the artifact kinds it persists, the upstream stages
// whose outputs it consumes, and the configuration fields that determine
// its output (conf). A stage's cache key is the SHA-256 of its canonically
// encoded conf plus its dependencies' keys, so any change anywhere
// upstream — a different dataset, one more epoch, a different λ —
// invalidates exactly the stages downstream of the change, and two runs
// that share a prefix (e.g. a bit-width sweep over one trained model)
// share the prefix's artifacts.
//
// Keys are computed even for stages that do not run this time (a benign
// run's preprocess, an unquantized run's finetune): an inactive stage's
// key is a pure function of its configuration, so downstream keys stay
// well-defined and deterministic.
type stage struct {
	// name labels the stage; spans appear as "core/<name>" and cache keys
	// use the "<name>/v1" domain.
	name string
	// kinds are the artifact kinds the stage persists, all under the
	// stage's key. Empty means the stage is recomputed every run (split is
	// cheap and deterministic; persisting whole datasets buys nothing).
	kinds []string
	// deps are upstream stage names whose keys feed this stage's key.
	deps []string
	// conf mixes the stage's own configuration into its cache key.
	conf func(p *pipeline, k *artifact.Key)
	// active reports whether the stage runs under this config (nil =
	// always). Inactive stages still contribute their key downstream.
	active func(p *pipeline) bool
	// run computes the stage from its in-memory inputs.
	run func(p *pipeline)
	// load restores the stage's outputs from the store (cache hit path);
	// a return of fs.ErrNotExist means miss, any other error means the
	// artifact is corrupt and is evicted.
	load func(p *pipeline, key string) error
	// save persists the stage's outputs after run.
	save func(p *pipeline, key string) error
	// after runs once the stage's slot in the graph completes — on cache
	// hits, after a fresh run, and even when the stage was inactive — for
	// derived metrics and progress logging that belong to this point of
	// the pipeline rather than to the stage's own computation.
	after func(p *pipeline)
}

// pipeline threads the stages' in-memory inputs and outputs plus the
// per-run context (config, store, computed keys).
type pipeline struct {
	cfg   Config
	store *artifact.Store
	res   *Result

	trainSet, testSet *dataset.Dataset
	x, tx             *tensor.Tensor
	y, ty             []int

	m        *nn.Model
	groups   []nn.LayerGroup
	lambdas  []float64
	reg      *attack.CorrelationReg
	trainRes train.Result

	keys       map[string]string
	dataDigest string
}

func (p *pipeline) logf(format string, args ...any) {
	if p.cfg.Log != nil {
		fmt.Fprintf(p.cfg.Log, format+"\n", args...)
	}
}

// stages returns the graph in execution order.
func stages() []*stage {
	return []*stage{stageSplit(), stagePreprocess(), stageTrain(), stageQuantize(), stageFinetune(), stageExtract()}
}

// exec runs one stage: key derivation, cache probe, compute, persist.
// Keys are derived when a store is attached — and also for distributed
// runs without one, because the train stage's key doubles as the run's
// dist token (every rank derives it identically from the shared
// configuration).
func (p *pipeline) exec(st *stage) {
	var key string
	if p.store != nil || p.cfg.Dist != nil {
		k := artifact.NewKey(st.name + "/v1")
		for _, d := range st.deps {
			dep, ok := p.keys[d]
			if !ok {
				panic(fmt.Sprintf("core: stage %s depends on %s which has no key yet", st.name, d))
			}
			k.Str("dep:"+d, dep)
		}
		st.conf(p, k)
		key = k.Sum()
		p.keys[st.name] = key
	}
	if st.active == nil || st.active(p) {
		sp := p.cfg.Trace.Span("core/" + st.name)
		hit := false
		if p.store != nil && len(st.kinds) > 0 {
			// A load can fail after writing into the model (finetune
			// restores its model state, then finds its record gone or
			// torn), and the stage must then run from the state it found.
			found := train.Capture(p.m, nil, 0, nil)
			err := st.load(p, key)
			if err == nil {
				hit = true
				p.countCache(st.name, true)
				p.logf("cache: %s hit (%s)", st.name, key[:12])
			} else {
				if rerr := found.Restore(p.m, nil); rerr != nil {
					panic(fmt.Sprintf("core: restoring the model after a failed %s load: %v", st.name, rerr))
				}
				if !errors.Is(err, fs.ErrNotExist) {
					// Self-heal: a corrupt or stale artifact is evicted and
					// the stage recomputed, so one bad file never wedges
					// the cache.
					p.logf("cache: %s artifact unusable, rebuilding: %v", st.name, err)
					for _, kind := range st.kinds {
						if derr := p.store.Delete(kind, key); derr != nil {
							p.logf("cache: evict %s/%s: %v", kind, key[:12], derr)
						}
					}
				}
				p.countCache(st.name, false)
			}
		}
		if !hit {
			st.run(p)
			if p.store != nil && len(st.kinds) > 0 {
				if err := st.save(p, key); err != nil {
					// A failed write must not kill the run it exists to
					// speed up.
					p.logf("cache: %s write failed: %v", st.name, err)
				}
			}
		}
		sp.End()
	}
	if st.after != nil {
		st.after(p)
	}
}

// countCache mirrors stage-level cache traffic into the obs registry
// (the store's own artifact_cache_* counters track file-level traffic,
// including epoch-checkpoint probes; these count stage outcomes).
func (p *pipeline) countCache(stage string, hit bool) {
	if !obs.Enabled() {
		return
	}
	name := "pipeline_cache_misses_total"
	if hit {
		name = "pipeline_cache_hits_total"
	}
	obs.Default.Counter(name).Inc()
	obs.Default.Counter(obs.SeriesName(name, "stage", stage)).Inc()
}

// archConf mixes the model architecture (and its init seed) into a key.
func (p *pipeline) archConf(k *artifact.Key) {
	c := p.cfg.ModelCfg
	k.Int("arch.inc", int64(c.InC)).
		Int("arch.inh", int64(c.InH)).
		Int("arch.inw", int64(c.InW)).
		Int("arch.classes", int64(c.Classes)).
		Ints("arch.widths", c.Widths).
		Ints("arch.blocks", c.Blocks).
		Int("arch.seed", c.Seed)
}

// ---- split ---------------------------------------------------------------

// testFrac is the fraction of the dataset the split holds out for testing.
const testFrac = 0.2

// stageSplit partitions the dataset and materializes the train/test
// tensors. It is never persisted: the split is a cheap deterministic
// function of the dataset, and its key (the dataset's content digest plus
// the split parameters) is what downstream stages inherit.
func stageSplit() *stage {
	return &stage{
		name: "split",
		conf: func(p *pipeline, k *artifact.Key) {
			if p.dataDigest == "" {
				p.dataDigest = p.cfg.Data.ContentDigest()
			}
			// labelnoise 0 stands for a retired knob (training-label
			// noise); keeping it keeps every key, and so stores written
			// before it went, valid.
			k.Str("data", p.dataDigest).
				Float("testfrac", testFrac).
				Float("labelnoise", 0).
				Int("seed", p.cfg.Seed)
		},
		run: func(p *pipeline) {
			p.trainSet, p.testSet = p.cfg.Data.Split(testFrac)
			p.x, p.y = p.trainSet.Tensors()
			p.tx, p.ty = p.testSet.Tensors()
		},
	}
}

// ---- preprocess ----------------------------------------------------------

// stagePreprocess is the paper's data pre-processing step (Fig 1, Sec.
// IV-A): select encoding targets (std-window or uniform) and build the
// per-group encoding plan. Output: the attack.Plan artifact; the
// correlation regularizer is rebuilt from the plan on both paths (it is
// stateless apart from diagnostics).
func stagePreprocess() *stage {
	return &stage{
		name:  "preprocess",
		kinds: []string{"plan"},
		deps:  []string{"split"},
		conf: func(p *pipeline, k *artifact.Key) {
			p.archConf(k)
			k.Float("windowlen", p.cfg.WindowLen).
				Ints("groupbounds", p.cfg.GroupBounds).
				Floats("lambdas", p.lambdas).
				Int("seed", p.cfg.Seed)
		},
		active: func(p *pipeline) bool { return malicious(p.lambdas) },
		run: func(p *pipeline) {
			var plan *attack.Plan
			if p.cfg.WindowLen > 0 {
				plan = attack.BuildPlan(p.trainSet, p.cfg.WindowLen, p.groups, p.lambdas, p.cfg.Seed)
			} else {
				plan = uniformPlanOverActive(p.trainSet, p.groups, p.lambdas, p.cfg.Seed)
			}
			p.installPlan(plan)
		},
		load: func(p *pipeline, key string) error {
			plan, err := artifact.Load(p.store, "plan", key, attack.ReadPlan)
			if err != nil {
				return err
			}
			p.installPlan(plan)
			return nil
		},
		save: func(p *pipeline, key string) error {
			return p.store.Put("plan", key, func(w io.Writer) error {
				return attack.WritePlan(w, p.res.Plan)
			})
		},
		after: func(p *pipeline) {
			if p.res.Plan == nil {
				return
			}
			p.logf("plan: %d images in std window (%.0f, %.0f)",
				p.res.Plan.TotalImages(), p.res.Plan.Window.Lo, p.res.Plan.Window.Hi)
		},
	}
}

// installPlan publishes a plan and its regularizer to the result.
func (p *pipeline) installPlan(plan *attack.Plan) {
	p.res.Plan = plan
	p.reg = attack.NewLayerwiseReg(p.groups, plan.Lambdas(), plan.Secrets())
	p.res.Reg = p.reg
}

// ---- train ---------------------------------------------------------------

// stageTrain runs the (possibly regularized) training. Output: a full
// model checkpoint (parameters, batch-norm statistics, optimizer state)
// under kind "model-state". When a store is attached, mid-training epoch
// checkpoints are additionally written under per-epoch keys so an
// interrupted run can resume (Config.Resume) bit-identically — the
// trainer's resume contract — instead of restarting from scratch.
// Threads is deliberately absent from the key: results are bit-identical
// across thread counts, so artifacts are shared across them.
func stageTrain() *stage {
	return &stage{
		name:  "train",
		kinds: []string{"model-state"},
		deps:  []string{"split", "preprocess"},
		conf: func(p *pipeline, k *artifact.Key) {
			p.archConf(k)
			k.Int("epochs", int64(p.cfg.Epochs)).
				Int("batch", int64(p.cfg.BatchSize)).
				Float("lr", p.cfg.LR).
				Float("momentum", p.cfg.Momentum).
				Float("clipnorm", p.cfg.ClipNorm).
				Int("seed", p.cfg.Seed)
			// Shards is semantic (shard-local batch-norm statistics,
			// shard-order reduction), so it keys the artifact — but only
			// above 1, so a single-shard run keeps the key it had before
			// shards existed and stores written then still hit. The
			// process count is deliberately absent, exactly like the
			// thread count: results are bit-identical across both.
			if p.cfg.Shards > 1 {
				k.Int("shards", int64(p.cfg.Shards))
			}
		},
		run: func(p *pipeline) {
			cfg := p.cfg
			tcfg := train.Config{
				Epochs: cfg.Epochs, BatchSize: cfg.BatchSize,
				Optimizer: train.NewSGD(cfg.LR, cfg.Momentum, 0),
				Schedule:  train.StepDecay(cfg.LR, max(cfg.Epochs/3, 1), 0.3),
				Seed:      cfg.Seed, ClipNorm: cfg.ClipNorm,
				Threads: cfg.Threads, Trace: cfg.Trace,
				Reg:    regOrNil(p.reg),
				Shards: cfg.Shards, Dist: cfg.Dist, DistToken: p.keys["train"],
			}
			if cfg.Log != nil {
				tcfg.Log = train.LogTo(cfg.Log)
			}
			key := p.keys["train"]
			if p.store != nil {
				every := 5
				if cfg.CheckpointEvery != 0 {
					every = cfg.CheckpointEvery
				}
				// Only the coordinator writes mid-training checkpoints: the
				// ranks' checkpoints would be byte-identical in model state
				// but differ in timing stats, and one writer per key is the
				// cleaner contract.
				if every > 0 && !p.distWorker() {
					tcfg.CheckpointEvery = every
					tcfg.Checkpoint = func(ck *train.Checkpoint) {
						err := p.store.Put("epoch-checkpoint", epochKey(key, ck.Epoch), func(w io.Writer) error {
							return train.EncodeCheckpoint(w, ck)
						})
						if err != nil {
							p.logf("cache: epoch %d checkpoint write failed: %v", ck.Epoch, err)
						}
					}
				}
				if cfg.Resume {
					// Every rank probes the shared store and finds the same
					// checkpoint, so their resume cursors agree; the begin
					// manifest's StartEpoch double-checks that.
					if ck := p.probeEpochCheckpoint(key); ck != nil {
						tcfg.Resume = ck
						p.logf("cache: resuming training from epoch %d/%d", ck.Epoch, cfg.Epochs)
					}
				}
			}
			p.trainRes = train.Run(p.m, p.x, p.y, tcfg)
			if p.trainRes.DistSkipped {
				// The coordinator's verdict: it served this run from
				// cache, so load the model state it published.
				if p.store == nil {
					panic("core: dist worker found a completed run but has no store to load it from")
				}
				if err := p.loadTrainedState(key); err != nil {
					panic(fmt.Sprintf("core: dist worker loading completed run: %v", err))
				}
			}
		},
		load: func(p *pipeline, key string) error {
			if err := p.loadTrainedState(key); err != nil {
				return err
			}
			// Only a coordinator probes this stage's cache (Run clears a
			// worker's kinds): its workers are waiting for the verdict.
			if p.cfg.Dist != nil {
				if err := p.cfg.Dist.Complete(key); err != nil {
					p.logf("dist: send complete verdict: %v", err)
				}
			}
			return nil
		},
		save: func(p *pipeline, key string) error {
			ck := train.Capture(p.m, nil, p.cfg.Epochs, p.trainRes.Epochs)
			return p.store.Put("model-state", key, func(w io.Writer) error {
				return train.EncodeCheckpoint(w, ck)
			})
		},
		after: func(p *pipeline) {
			p.res.PreQuantTestAcc = p.m.Accuracy(p.tx, p.ty, 64)
			p.logf("trained: test acc %.2f%%", 100*p.res.PreQuantTestAcc)
		},
	}
}

// distWorker reports whether this pipeline runs on a worker rank.
func (p *pipeline) distWorker() bool {
	return p.cfg.Dist != nil && p.cfg.Dist.Worker()
}

// loadTrainedState restores the train stage's published checkpoint from
// the store — the cache-hit path, and a dist worker's fallback when the
// coordinator satisfied the run from cache.
func (p *pipeline) loadTrainedState(key string) error {
	ck, err := p.restoreState(key)
	if err != nil {
		return err
	}
	// train.Run installs the execution context as a side effect;
	// the cached path must too, so fine-tuning and evaluation see
	// the same thread count either way.
	p.m.SetThreads(p.cfg.Threads)
	p.trainRes = train.Result{Epochs: ck.Stats}
	return nil
}

// restoreState loads the model-state artifact under key into the model.
func (p *pipeline) restoreState(key string) (*train.Checkpoint, error) {
	ck, err := artifact.Load(p.store, "model-state", key, train.DecodeCheckpoint)
	if err != nil {
		return nil, err
	}
	if err := ck.Restore(p.m, nil); err != nil {
		return nil, err
	}
	return ck, nil
}

// epochKey derives the key of a mid-training checkpoint from the train
// stage's key. The full train key participates — not just the epoch —
// because epoch-k weights depend on the total epoch budget through the LR
// schedule, so a 25-epoch and a 50-epoch run must not share prefixes.
func epochKey(trainKey string, epoch int) string {
	return artifact.NewKey("train-epoch/v1").
		Str("train", trainKey).
		Int("epoch", int64(epoch)).
		Sum()
}

// probeEpochCheckpoint looks for the latest usable mid-training checkpoint
// below the full run. Has is used for the scan so speculative probes do
// not pollute the hit/miss counters; only the chosen key is read.
func (p *pipeline) probeEpochCheckpoint(trainKey string) *train.Checkpoint {
	for e := p.cfg.Epochs - 1; e >= 1; e-- {
		ekey := epochKey(trainKey, e)
		if !p.store.Has("epoch-checkpoint", ekey) {
			continue
		}
		ck, err := artifact.Load(p.store, "epoch-checkpoint", ekey, train.DecodeCheckpoint)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			p.logf("cache: epoch %d checkpoint unusable, skipping: %v", e, err)
			if derr := p.store.Delete("epoch-checkpoint", ekey); derr != nil {
				p.logf("cache: evict epoch checkpoint: %v", derr)
			}
			continue
		}
		return ck
	}
	return nil
}

// regOrNil converts a typed-nil regularizer into an untyped nil interface
// so the trainer's `cfg.Reg != nil` checks stay meaningful.
func regOrNil(r *attack.CorrelationReg) train.Regularizer {
	if r == nil {
		return nil
	}
	return r
}

// ---- quantize ------------------------------------------------------------

// stageQuantize compresses the trained model. Output: the quantization
// record (codebooks + assignments) under kind "quant-record"; binding the
// record onto the trained model rewrites every covered weight to its
// centroid, which *is* the quantized model, so no separate weight artifact
// is needed.
func stageQuantize() *stage {
	return &stage{
		name:  "quantize",
		kinds: []string{"quant-record"},
		deps:  []string{"train", "preprocess"},
		conf: func(p *pipeline, k *artifact.Key) {
			k.Str("mode", p.cfg.Quant.String()).
				Int("bits", int64(p.cfg.Bits))
		},
		active: func(p *pipeline) bool { return p.cfg.Quant != QuantNone },
		run: func(p *pipeline) {
			levels := 1 << p.cfg.Bits
			switch p.cfg.Quant {
			case QuantWEQ:
				p.res.Applied = quantize.QuantizeModel(p.m, quantize.WeightedEntropy{}, levels)
			case QuantLinear:
				p.res.Applied = quantize.QuantizeModel(p.m, quantize.Linear{LloydIters: 5}, levels)
			case QuantTargetCorrelated:
				if p.res.Plan == nil {
					panic("core: target-correlated quantization requires a malicious run")
				}
				p.res.Applied = targetCorrelatedQuantize(p.m, p.groups, p.res.Plan, levels)
			default:
				panic(fmt.Sprintf("core: unknown quant mode %v", p.cfg.Quant))
			}
		},
		load: func(p *pipeline, key string) error {
			if p.cfg.Quant != QuantWEQ && p.cfg.Quant != QuantLinear && p.cfg.Quant != QuantTargetCorrelated {
				panic(fmt.Sprintf("core: unknown quant mode %v", p.cfg.Quant))
			}
			return p.loadApplied("quant-record", key)
		},
		save: func(p *pipeline, key string) error {
			return p.saveApplied("quant-record", key)
		},
	}
}

// loadApplied restores a quantization record and binds it onto the model
// (rewriting the covered weights from their codebooks).
func (p *pipeline) loadApplied(kind, key string) error {
	blob, err := artifact.Load(p.store, kind, key, quantize.DecodeApplied)
	if err != nil {
		return err
	}
	a, err := blob.Bind(p.m)
	if err != nil {
		return err
	}
	p.res.Applied = a
	return nil
}

func (p *pipeline) saveApplied(kind, key string) error {
	return p.store.Put(kind, key, func(w io.Writer) error {
		return quantize.EncodeApplied(w, quantize.Snapshot(p.res.Applied))
	})
}

// ---- finetune ------------------------------------------------------------

// stageFinetune runs post-quantization centroid fine-tuning. It mutates
// both the codebooks and the free (non-quantized) parameters, so its
// output is two artifacts under one key: the fine-tuned model state and
// the updated quantization record. On load the model state is restored
// first and the record bound second; binding re-materializes the covered
// weights from the fine-tuned codebooks, which matches the live path
// because FineTune leaves the model rewritten from centroids after its
// last step.
func stageFinetune() *stage {
	return &stage{
		name:  "finetune",
		kinds: []string{"model-state", "quant-record"},
		deps:  []string{"quantize"},
		conf: func(p *pipeline, k *artifact.Key) {
			k.Int("epochs", int64(p.cfg.FineTuneEpochs)).
				Float("lr", p.finetuneLR()).
				Bool("keepreg", p.cfg.KeepRegDuringFineTune)
		},
		active: func(p *pipeline) bool { return p.res.Applied != nil && p.cfg.FineTuneEpochs > 0 },
		run: func(p *pipeline) {
			ft := quantize.FineTuneConfig{
				Epochs: p.cfg.FineTuneEpochs, BatchSize: p.cfg.BatchSize,
				LR: p.finetuneLR(), Seed: p.cfg.Seed + 1,
			}
			if p.cfg.KeepRegDuringFineTune && p.reg != nil {
				ft.Reg = p.reg
			}
			quantize.FineTune(p.m, p.res.Applied, p.x, p.y, ft)
		},
		load: func(p *pipeline, key string) error {
			if _, err := p.restoreState(key); err != nil {
				return err
			}
			return p.loadApplied("quant-record", key)
		},
		save: func(p *pipeline, key string) error {
			ck := train.Capture(p.m, nil, p.cfg.Epochs, nil)
			if err := p.store.Put("model-state", key, func(w io.Writer) error {
				return train.EncodeCheckpoint(w, ck)
			}); err != nil {
				return err
			}
			return p.saveApplied("quant-record", key)
		},
		after: func(p *pipeline) {
			// Released-model metrics: this is the state the model ships in,
			// whatever subset of quantize/finetune actually ran.
			p.res.TrainAcc = p.m.Accuracy(p.x, p.y, 64)
			p.res.TestAcc = p.m.Accuracy(p.tx, p.ty, 64)
			p.logf("released: test acc %.2f%% (quant=%v bits=%d)", 100*p.res.TestAcc, p.cfg.Quant, p.cfg.Bits)
		},
	}
}

// finetuneLR resolves the fine-tuning learning rate (default LR/10).
func (p *pipeline) finetuneLR() float64 {
	if p.cfg.FineTuneLR != 0 {
		return p.cfg.FineTuneLR
	}
	return p.cfg.LR / 10
}

// ---- extract -------------------------------------------------------------

// stageExtract is the adversary's pass over the released model: per-group
// best-polarity decoding moment-matched to the domain statistics chosen
// at pre-processing time. Output: the extraction report (scores +
// reconstructed images) under kind "report".
func stageExtract() *stage {
	return &stage{
		name:  "extract",
		kinds: []string{"report"},
		deps:  []string{"finetune"},
		conf: func(p *pipeline, k *artifact.Key) {
			mean, std := p.decodeMoments()
			k.Float("mean", mean).Float("std", std)
		},
		active: func(p *pipeline) bool { return p.res.Plan != nil },
		run: func(p *pipeline) {
			mean, std := p.decodeMoments()
			opt := attack.DecodeOptions{TargetMean: mean, TargetStd: std}
			for _, pg := range p.res.Plan.Groups {
				if len(pg.Images) == 0 {
					continue
				}
				score, recon := attack.BestPolarityDecode(pg, p.groups[pg.GroupIndex], p.res.Plan.ImageGeom, opt)
				p.res.PerGroup = append(p.res.PerGroup, score)
				p.res.Recon = append(p.res.Recon, recon...)
			}
			p.res.Score = attack.ScoreReconstructions(p.res.Plan.AllImages(), p.res.Recon)
		},
		load: func(p *pipeline, key string) error {
			rep, err := artifact.Load(p.store, "report", key, attack.ReadReport)
			if err != nil {
				return err
			}
			p.res.Score, p.res.PerGroup, p.res.Recon = rep.Score, rep.PerGroup, rep.Recon
			return nil
		},
		save: func(p *pipeline, key string) error {
			return p.store.Put("report", key, func(w io.Writer) error {
				return attack.WriteReport(w, &attack.Report{
					Score: p.res.Score, PerGroup: p.res.PerGroup, Recon: p.res.Recon,
				})
			})
		},
		after: func(p *pipeline) {
			if p.res.Plan == nil {
				return
			}
			p.logf("extracted: %s", p.res.Score)
		},
	}
}

// decodeMoments resolves the extraction's moment-matching targets: the
// configured values, else mean 128 and the std-window midpoint (or the
// domain-typical 50 for the vanilla uniform attack).
func (p *pipeline) decodeMoments() (mean, std float64) {
	mean, std = p.cfg.DecodeMean, p.cfg.DecodeStd
	if mean == 0 {
		mean = 128
	}
	if std == 0 {
		if p.cfg.WindowLen > 0 && p.res.Plan != nil {
			std = (p.res.Plan.Window.Lo + p.res.Plan.Window.Hi) / 2
		} else {
			std = 50
		}
	}
	return mean, std
}

// malicious reports whether any group carries a nonzero correlation rate.
func malicious(lambdas []float64) bool {
	for _, l := range lambdas {
		if l != 0 {
			return true
		}
	}
	return false
}

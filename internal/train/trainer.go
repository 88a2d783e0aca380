package train

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"repro/internal/artifact"
	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Regularizer injects extra loss terms into training. After the data-loss
// backward pass has accumulated gradients, Apply is called once per step;
// it must add its own gradient contributions to the model parameters and
// return the penalty value (for logging).
//
// The correlated-value-encoding attacks implement this interface.
type Regularizer interface {
	Apply(m *nn.Model) float64
}

// groupCorrelated is the optional diagnostics side of a regularizer: the
// correlation attacks report the per-group Pearson correlation of their
// last Apply, which the trainer surfaces in EpochStats and the obs
// registry.
type groupCorrelated interface {
	Correlations() []float64
}

// Config controls a training run.
type Config struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize is the minibatch size.
	BatchSize int
	// Optimizer performs parameter updates; required.
	Optimizer Optimizer
	// Schedule, when non-nil, sets the LR at the start of each epoch.
	Schedule func(epoch int) float64
	// Reg, when non-nil, is applied every step after the data loss.
	Reg Regularizer
	// Seed drives minibatch shuffling.
	Seed int64
	// Threads sets the worker count of the execution context installed on
	// the model for this run (and kept afterwards, so fine-tuning and
	// evaluation inherit it). 0 selects runtime.GOMAXPROCS; 1 forces the
	// serial path. Training results are bit-identical for every value —
	// the layer contract reduces per-sample gradients in fixed sample
	// order — so the knob trades wall-clock only, never reproducibility.
	Threads int
	// Ctx, when non-nil, overrides Threads with a private execution
	// context. Multi-rank tests that run several trainers concurrently in
	// one process need this: the shared contexts Threads selects allow
	// only one driver at a time.
	Ctx *compute.Ctx
	// Shards is the semantic data-parallel knob: each batch's gradient is
	// computed as Shards independent contiguous shard partials (batch norm
	// sees shard-local statistics, like gradient accumulation) and reduced
	// in ascending shard order. Results depend on Shards but are
	// byte-identical for every (threads × processes) execution shape that
	// computes them. 0 defaults to 1 (the whole batch is one shard), or to
	// Dist.Procs() when a dist session is attached. Must be ≥ the process
	// count and ≤ BatchSize.
	Shards int
	// Dist, when non-nil, runs the step machine's exchange stage over the
	// session's connections: this rank computes only its owned shard range
	// and receives the rest from its peers. All ranks of a run must pass
	// configurations that agree on everything above (enforced via the
	// coordinator's begin manifest).
	Dist *dist.Session
	// DistToken identifies this run on the session. Every rank must derive
	// the same token; the pipeline passes its train-stage cache key. Empty
	// derives a token from the run's configuration.
	DistToken string
	// Log, when non-nil, receives each epoch's statistics. Use LogTo for
	// the default one-line stdout formatter.
	Log func(EpochStats)
	// Trace, when non-nil, receives phase spans: one train/epoch span per
	// epoch with forward/backward/regularizer/optimizer children
	// accumulated over the epoch's steps. nil disables tracing with no
	// per-step cost.
	Trace *obs.Tracer
	// ClipNorm, when positive, rescales the global gradient norm to at
	// most this value before each step (keeps the correlation penalty
	// from destabilizing early epochs).
	ClipNorm float64
	// Resume, when non-nil, continues a run from the checkpoint instead
	// of starting fresh: parameters, batch-norm running statistics, and
	// optimizer state are restored, the shuffle RNG is fast-forwarded by
	// the checkpoint's epoch cursor, and the loop starts at epoch
	// Resume.Epoch. Everything else in the Config (Seed, Epochs, LR,
	// Schedule, ...) must match the original run; the result is then
	// bit-identical to an uninterrupted run, which
	// TestResumeBitIdenticalToUninterrupted pins.
	Resume *Checkpoint
	// CheckpointEvery, when positive and Checkpoint is set, captures a
	// snapshot after every k-th completed epoch (except the last, whose
	// state the caller already has in the model itself).
	CheckpointEvery int
	// Checkpoint receives mid-training snapshots. The hook owns error
	// handling (a failed checkpoint write must not kill the run it
	// exists to protect).
	Checkpoint func(*Checkpoint)
}

// EpochStats summarizes one training epoch.
type EpochStats struct {
	Epoch    int
	DataLoss float64
	RegLoss  float64
	LR       float64
	// Steps is the number of optimizer steps the epoch ran.
	Steps int
	// Forward, Backward, Reg, and Optim are the wall time the epoch spent
	// in each phase, summed over its steps. They are measured only when
	// timing is on (Config.Trace set or obs enabled) and zero otherwise,
	// so the hot loop pays no clock reads by default.
	Forward, Backward, Reg, Optim time.Duration
	// Exchange and Reduce are the step machine's last phases: Exchange is
	// the partial send + peer-wait time (zero without a dist session) and
	// Reduce is the shard-order gradient fold + batch-norm replay. They
	// are accounted separately so Backward measures compute only.
	Exchange, Reduce time.Duration
	// GroupCorr is the per-group correlation reported by the regularizer
	// after the epoch's last step (nil unless the regularizer exposes
	// Correlations, i.e. for the encoding attacks).
	GroupCorr []float64
}

// LogTo adapts an io.Writer into a Config.Log callback using the default
// per-epoch line format.
func LogTo(w io.Writer) func(EpochStats) {
	return func(st EpochStats) {
		fmt.Fprintf(w, "epoch %3d  loss %.4f  reg %.4f  lr %.4g\n", st.Epoch, st.DataLoss, st.RegLoss, st.LR)
	}
}

// Result summarizes a training run.
type Result struct {
	Epochs []EpochStats
	// DistSkipped reports that a worker rank got the coordinator's
	// complete verdict instead of begin: the coordinator satisfied the run
	// from cache, nothing was trained here, and the model was left
	// untouched. The caller (the pipeline's train stage) loads the
	// published model state instead.
	DistSkipped bool
}

// FinalLoss returns the last epoch's data loss (0 if no epochs ran).
func (r Result) FinalLoss() float64 {
	if len(r.Epochs) == 0 {
		return 0
	}
	return r.Epochs[len(r.Epochs)-1].DataLoss
}

// Run trains m on inputs x (N, ...) with labels y under cfg. Each epoch is
// driven through an explicit per-step stage machine (see stepMachine):
// shard → forward/backward partials → exchange → global reduce → optimizer
// step. The result is byte-identical for every (threads × processes)
// execution shape that computes the same shards.
func Run(m *nn.Model, x *tensor.Tensor, y []int, cfg Config) Result {
	n := x.Dim(0)
	if len(y) != n {
		panic(fmt.Sprintf("train: %d labels for %d samples", len(y), n))
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Optimizer == nil {
		panic("train: Config.Optimizer is required")
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
		if cfg.Dist != nil {
			shards = cfg.Dist.Procs()
		}
	}
	if shards > cfg.BatchSize {
		panic(fmt.Sprintf("train: %d shards over batch size %d (every shard needs at least one sample)", shards, cfg.BatchSize))
	}
	if cfg.Dist != nil && cfg.Dist.Procs() > shards {
		panic(fmt.Sprintf("train: %d processes but only %d shards (procs must be <= shards)", cfg.Dist.Procs(), shards))
	}
	if cfg.Ctx != nil {
		m.SetCtx(cfg.Ctx)
	} else {
		m.SetThreads(cfg.Threads)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}

	var res Result
	start := 0
	if cfg.Resume != nil {
		if err := cfg.Resume.Restore(m, cfg.Optimizer); err != nil {
			panic(fmt.Sprintf("train: resume: %v", err))
		}
		start = cfg.Resume.Epoch
		res.Epochs = append(res.Epochs, cfg.Resume.Stats...)
		// Advance the RNG to the checkpoint's cursor: the loop's only
		// randomness is one shuffle per epoch, so replaying the completed
		// epochs' shuffles leaves perm and the stream exactly where the
		// uninterrupted run had them.
		for e := 0; e < start; e++ {
			rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		}
	}

	stepsPerEpoch := n / cfg.BatchSize
	token := cfg.DistToken
	if token == "" && cfg.Dist != nil {
		token = deriveToken(m, &cfg, n, shards)
	}
	sm := newStepMachine(m, x, y, cfg.BatchSize, shards, cfg.Dist, token)
	defer sm.close()
	if cfg.Dist != nil {
		man := dist.Manifest{
			Token: token, Procs: cfg.Dist.Procs(), Shards: shards,
			BatchSize: cfg.BatchSize, Steps: stepsPerEpoch,
			Epochs: cfg.Epochs, StartEpoch: start, ParamCount: m.NumParams(),
			Moments: sm.bnLen,
		}
		if cfg.Dist.Worker() {
			got, completed, err := cfg.Dist.AwaitBegin(token)
			if err != nil {
				panic(fmt.Sprintf("train: %v", err))
			}
			if completed {
				// The coordinator satisfied this run from cache; there is
				// nothing to exchange. The caller loads the published state.
				return Result{DistSkipped: true}
			}
			if got != man {
				panic(fmt.Sprintf("train: dist manifest mismatch: coordinator announced %+v, this rank derived %+v", got, man))
			}
		} else if err := cfg.Dist.Begin(man); err != nil {
			panic(fmt.Sprintf("train: %v", err))
		}
	}

	for epoch := start; epoch < cfg.Epochs; epoch++ {
		// Timing is re-checked per epoch so flipping obs.Enable mid-run
		// (e.g. from a signal handler) takes effect at the next epoch.
		timed := cfg.Trace != nil || obs.Enabled()
		sm.timed = timed
		if cfg.Schedule != nil {
			cfg.Optimizer.SetLR(cfg.Schedule(epoch))
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		var dataLoss, regLoss float64
		var tReg, tOptim time.Duration
		var epochStart time.Time
		if timed {
			epochStart = time.Now()
		}
		steps := 0
		for lo := 0; lo+cfg.BatchSize <= n; lo += cfg.BatchSize {
			loss := sm.step(epoch, steps, perm[lo:lo+cfg.BatchSize])

			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			if cfg.Reg != nil {
				regLoss += cfg.Reg.Apply(m)
				if timed {
					t1 := time.Now()
					tReg += t1.Sub(t0)
					t0 = t1
				}
			}
			if cfg.ClipNorm > 0 {
				clipGradNorm(m.Params(), cfg.ClipNorm)
			}
			cfg.Optimizer.Step(m.Params())
			if timed {
				tOptim += time.Since(t0)
			}
			dataLoss += loss
			steps++
		}
		if steps > 0 {
			dataLoss /= float64(steps)
			regLoss /= float64(steps)
		}
		st := EpochStats{
			Epoch: epoch, DataLoss: dataLoss, RegLoss: regLoss,
			LR: cfg.Optimizer.LR(), Steps: steps,
			Reg: tReg, Optim: tOptim,
		}
		st.Forward, st.Backward, st.Exchange, st.Reduce = sm.drainTimings()
		if gc, ok := cfg.Reg.(groupCorrelated); ok {
			st.GroupCorr = gc.Correlations()
		}
		if timed {
			recordEpoch(cfg.Trace, st, time.Since(epochStart))
		}
		res.Epochs = append(res.Epochs, st)
		if cfg.Log != nil {
			cfg.Log(st)
		}
		if cfg.Checkpoint != nil && cfg.CheckpointEvery > 0 &&
			(epoch+1)%cfg.CheckpointEvery == 0 && epoch+1 < cfg.Epochs {
			cfg.Checkpoint(Capture(m, cfg.Optimizer, epoch+1, res.Epochs))
		}
	}
	return res
}

// deriveToken builds a run token for runs without a pipeline cache key: a
// digest of everything that positions the run's exchange traffic. Every
// rank of a run derives it from the same configuration, so their verdict
// and partials name the same run.
func deriveToken(m *nn.Model, cfg *Config, n, shards int) string {
	k := artifact.NewKey("dist-token/v1").
		Int("seed", cfg.Seed).
		Int("epochs", int64(cfg.Epochs)).
		Int("batch", int64(cfg.BatchSize)).
		Int("shards", int64(shards)).
		Int("samples", int64(n)).
		Int("params", int64(m.NumParams()))
	for _, p := range m.Params() {
		k.Str("param", p.Name)
	}
	return k.Sum()
}

// recordEpoch folds one epoch's accumulated phase timings into the span
// tree and the shared metrics registry. Called once per epoch, off the
// step-granularity hot path.
func recordEpoch(tr *obs.Tracer, st EpochStats, epochWall time.Duration) {
	steps := int64(st.Steps)
	tr.Add("train/epoch", epochWall, 1)
	tr.Add("train/epoch/forward", st.Forward, steps)
	tr.Add("train/epoch/backward", st.Backward, steps)
	if st.Exchange > 0 {
		tr.Add("train/epoch/exchange", st.Exchange, steps)
	}
	if st.Reduce > 0 {
		tr.Add("train/epoch/reduce", st.Reduce, steps)
	}
	if st.Reg > 0 {
		tr.Add("train/epoch/regularizer", st.Reg, steps)
	}
	tr.Add("train/epoch/optimizer", st.Optim, steps)
	if !obs.Enabled() {
		return
	}
	obs.Default.Counter("train_epochs_total").Inc()
	obs.Default.Counter("train_steps_total").Add(steps)
	obs.Default.Gauge("train_data_loss").Set(st.DataLoss)
	obs.Default.Gauge("train_reg_loss").Set(st.RegLoss)
	for i, c := range st.GroupCorr {
		obs.Default.Gauge(fmt.Sprintf(`train_group_corr{group="%d"}`, i)).Set(c)
	}
}

// gather copies the permuted samples into the batch buffers.
func gather(bx *tensor.Tensor, by []int, x *tensor.Tensor, y []int, idx []int) {
	sample := bx.Dim(1)
	xd, bd := x.Data(), bx.Data()
	for i, src := range idx {
		copy(bd[i*sample:(i+1)*sample], xd[src*sample:(src+1)*sample])
		by[i] = y[src]
	}
}

func clipGradNorm(params []*nn.Param, maxNorm float64) {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad.Data() {
			total += g * g
		}
	}
	if total <= maxNorm*maxNorm {
		return
	}
	scale := maxNorm / (math.Sqrt(total) + 1e-12)
	for _, p := range params {
		p.Grad.Scale(scale)
	}
}

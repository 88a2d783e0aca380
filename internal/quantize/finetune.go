package quantize

import (
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

// FineTuneConfig controls post-quantization fine-tuning.
type FineTuneConfig struct {
	// Epochs is the number of fine-tuning passes (the paper's "light
	// fine-tuning to boost accuracy").
	Epochs int
	// BatchSize is the minibatch size (default 32).
	BatchSize int
	// LR is the centroid / free-parameter learning rate.
	LR float64
	// Seed drives shuffling.
	Seed int64
	// Reg, when non-nil, keeps a regularizer active during fine-tuning
	// (the attack flow keeps its correlation penalty on so centroids do
	// not drift away from the encoding).
	Reg train.Regularizer
}

// FineTune performs deep-compression style shared-weight training: cluster
// assignments stay frozen, the gradient of every weight in a cluster is
// averaged into its centroid, and centroids plus all non-quantized
// parameters (biases, batch-norm affine) are updated with SGD. Weights are
// re-materialized from centroids after every step, so the model remains
// exactly `levels`-valued throughout. The loop is train.Run's, on the
// model's own execution context, with sharedSGD as the optimizer.
func FineTune(m *nn.Model, a *Applied, x *tensor.Tensor, y []int, cfg FineTuneConfig) {
	if cfg.Epochs <= 0 {
		return
	}
	if cfg.LR == 0 {
		cfg.LR = 0.01
	}
	opt := &sharedSGD{a: a, lr: cfg.LR, quantized: make(map[*nn.Param]bool)}
	for _, u := range a.Units {
		for _, p := range u.Params {
			opt.quantized[p] = true
		}
	}
	train.Run(m, x, y, train.Config{
		Epochs: cfg.Epochs, BatchSize: cfg.BatchSize, Seed: cfg.Seed, Reg: cfg.Reg,
		Optimizer: opt, Ctx: m.Ctx(),
	})
}

// sharedSGD is fine-tuning's optimizer. Each centroid moves by the mean
// gradient of its cluster's members, the quantized weights are rewritten
// from the moved centroids, and every other parameter takes a plain SGD
// step.
type sharedSGD struct {
	a         *Applied
	lr        float64
	quantized map[*nn.Param]bool
}

// Step implements train.Optimizer.
func (o *sharedSGD) Step(params []*nn.Param) {
	for _, u := range o.a.Units {
		k := u.Book.NumLevels()
		sums := make([]float64, k)
		counts := make([]int, k)
		for pi, p := range u.Params {
			gd := p.Grad.Data()
			for i, c := range u.Assign[pi] {
				sums[c] += gd[i]
				counts[c]++
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] > 0 {
				u.Book.Levels[c] -= o.lr * sums[c] / float64(counts[c])
			}
		}
	}
	o.a.Rewrite()
	for _, p := range params {
		if !o.quantized[p] {
			p.Value.AddScaled(-o.lr, p.Grad)
		}
	}
}

// SetLR implements train.Optimizer.
func (o *sharedSGD) SetLR(lr float64) { o.lr = lr }

// LR implements train.Optimizer.
func (o *sharedSGD) LR() float64 { return o.lr }

package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// ResNetConfig describes a MiniResNet: a scaled-down residual classifier
// structured like the paper's ResNet-34 (initial conv, three stages of
// basic blocks with channel doubling and stride-2 downsampling, global
// average pooling, linear classifier).
type ResNetConfig struct {
	// InC, InH, InW give the per-sample input shape.
	InC, InH, InW int
	// Classes is the classifier output width.
	Classes int
	// Widths are per-stage channel counts, e.g. [8, 16, 32].
	Widths []int
	// Blocks are per-stage basic-block counts, e.g. [2, 2, 2].
	Blocks []int
	// Seed drives weight initialization.
	Seed int64
}

// DefaultCIFARConfig returns the MiniResNet used for the CIFAR-like
// experiments: 3 stages on 16×16 inputs. Conv-layer indices run 1..13
// (1 stem + 12 block convs) plus the final dense layer at index 14, so the
// paper's group structure (early/middle/late) maps onto index bounds.
func DefaultCIFARConfig(channels, classes int) ResNetConfig {
	return ResNetConfig{
		InC: channels, InH: 16, InW: 16,
		Classes: classes,
		Widths:  []int{8, 16, 32},
		Blocks:  []int{2, 2, 2},
		Seed:    1,
	}
}

// NewResNet builds a MiniResNet from cfg. Conv layers get 1-based
// ConvIndex values in forward order; the classifier dense layer gets the
// next index.
func NewResNet(cfg ResNetConfig) *Model {
	if len(cfg.Widths) != len(cfg.Blocks) {
		panic(fmt.Sprintf("nn: widths %v and blocks %v differ in length", cfg.Widths, cfg.Blocks))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	seq := NewSequential("resnet")

	idx := 1
	stem := NewConv2D("stem.conv", cfg.InC, cfg.InH, cfg.InW, cfg.Widths[0], 3, 1, 1, rng)
	stem.W.ConvIndex = idx
	stem.B.ConvIndex = idx
	idx++
	seq.Add(stem)
	seq.Add(NewBatchNorm2D("stem.bn", cfg.Widths[0]))
	seq.Add(NewReLU("stem.relu"))

	c, h, w := cfg.Widths[0], cfg.InH, cfg.InW
	for si, width := range cfg.Widths {
		stride := 2
		if si == 0 {
			stride = 1
		}
		for bi := 0; bi < cfg.Blocks[si]; bi++ {
			s := 1
			if bi == 0 {
				s = stride
			}
			name := fmt.Sprintf("stage%d.block%d", si+1, bi)
			blk := NewResidual(name, c, h, w, width, s, idx, rng)
			idx += 2
			seq.Add(blk)
			c, h, w = blk.OutC, blk.OutH, blk.OutW
		}
	}

	seq.Add(NewGlobalAvgPool("gap", c, h, w))
	fc := NewDense("fc", c, cfg.Classes, rng)
	fc.W.ConvIndex = idx
	fc.B.ConvIndex = idx
	seq.Add(fc)

	return NewModel(seq, cfg.Classes, []int{cfg.InC, cfg.InH, cfg.InW})
}

// NumParams returns the number of scalar parameters NewResNet(cfg) builds,
// without building anything, so a release header can be checked against
// the values it carries before a single weight is allocated. It returns -1
// if NewResNet cannot build cfg (a non-positive size, empty or mismatched
// stage lists) or the count overflows an int.
func (cfg ResNetConfig) NumParams() int {
	if cfg.InC <= 0 || cfg.InH <= 0 || cfg.InW <= 0 || cfg.Classes <= 0 ||
		len(cfg.Widths) == 0 || len(cfg.Widths) != len(cfg.Blocks) {
		return -1
	}
	n := 0
	add := func(factors ...int) { n = mulAdd(n, factors...) }
	// times convolutions in→out with k×k kernels (weights and bias), and
	// times batch norms over c channels (gamma and beta).
	conv := func(times, in, out, k int) { add(times, out, in, k, k); add(times, out) }
	bn := func(times, c int) { add(times, 2, c) }

	conv(1, cfg.InC, cfg.Widths[0], 3) // stem
	bn(1, cfg.Widths[0])
	c := cfg.Widths[0]
	for si, w := range cfg.Widths {
		b := cfg.Blocks[si]
		if w <= 0 || b <= 0 {
			return -1
		}
		conv(1, c, w, 3)   // block 0's conv1 maps c→w
		conv(b-1, w, w, 3) // conv1 of blocks 1..b-1
		conv(b, w, w, 3)   // every block's conv2
		bn(b, w)           // every block's bn1
		bn(b, w)           // every block's bn2
		if si > 0 {
			// Block 0 of a stride-2 stage projects its shortcut.
			conv(1, c, w, 1)
			bn(1, w)
		}
		c = w
	}
	add(cfg.Classes, c) // classifier weights
	add(cfg.Classes)    // classifier bias
	return n
}

// ActivationsFit reports whether every per-sample tensor NewResNet(cfg)
// passes between stages — the input and each stage's output — has a size
// that fits an int. A release whose sizes wrap would otherwise load, then
// index its eval buffers with the wrapped values. cfg must pass NumParams.
func (cfg ResNetConfig) ActivationsFit() bool {
	ok := mulAdd(0, cfg.InC, cfg.InH, cfg.InW) >= 0
	h, w := cfg.InH, cfg.InW
	for si, c := range cfg.Widths {
		if si > 0 {
			h, w = (h-1)/2+1, (w-1)/2+1 // a 3×3 stride-2 conv, padded by 1
		}
		ok = ok && mulAdd(0, c, h, w) >= 0
	}
	return ok
}

// mulAdd returns n plus the product of factors (all non-negative), or -1
// if n is already -1 or the result overflows an int.
func mulAdd(n int, factors ...int) int {
	if n < 0 {
		return -1
	}
	p := 1
	for _, f := range factors {
		if f != 0 && p > math.MaxInt/f {
			return -1
		}
		p *= f
	}
	if p > math.MaxInt-n {
		return -1
	}
	return n + p
}

// NewMLP builds a small fully connected classifier (used by fast unit tests
// and the LSB/sign baseline demos, where convolution is irrelevant).
// Dense layers get consecutive ConvIndex values from 1.
func NewMLP(name string, in int, hidden []int, classes int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	seq := NewSequential(name)
	prev := in
	idx := 1
	for i, hDim := range hidden {
		d := NewDense(fmt.Sprintf("%s.fc%d", name, i+1), prev, hDim, rng)
		d.W.ConvIndex = idx
		d.B.ConvIndex = idx
		idx++
		seq.Add(d)
		seq.Add(NewReLU(fmt.Sprintf("%s.relu%d", name, i+1)))
		prev = hDim
	}
	out := NewDense(name+".out", prev, classes, rng)
	out.W.ConvIndex = idx
	out.B.ConvIndex = idx
	seq.Add(out)
	return NewModel(seq, classes, []int{in})
}

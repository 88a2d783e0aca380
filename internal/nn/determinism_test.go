package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compute"
	"repro/internal/tensor"
)

// The determinism contract (see the compute package): every forward,
// backward, and optimizer-visible quantity must be bit-identical for every
// thread count. These tests pin that contract at the model level — a ResNet
// exercises conv, batch-norm (including running-stat updates), ReLU, pooling,
// residual adds, and dense layers in one pass.

// detModel builds a small ResNet with a fixed seed so two calls produce
// bit-identical initial parameters.
func detModel() *Model {
	return NewResNet(ResNetConfig{
		InC: 1, InH: 8, InW: 8, Classes: 4,
		Widths: []int{4, 8}, Blocks: []int{1, 1}, Seed: 77,
	})
}

// detSteps runs k manual SGD steps on m and returns the final logits of a
// held-out eval forward (eval mode covers the BN running-stat path too).
func detSteps(m *Model, k int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(78))
	x := tensor.New(6, 1, 8, 8).RandN(rng, 0, 1)
	labels := []int{0, 1, 2, 3, 0, 1}
	for step := 0; step < k; step++ {
		m.ZeroGrad()
		logits := m.ForwardTrain(x)
		_, grad := SoftmaxCrossEntropy(logits, labels)
		m.Backward(grad)
		for _, p := range m.Params() {
			p.Value.AddScaled(-0.05, p.Grad)
		}
	}
	xe := tensor.New(3, 1, 8, 8).RandN(rng, 0, 1)
	return m.Forward(xe)
}

func TestModelBitIdenticalAcrossThreadCounts(t *testing.T) {
	ref := detModel()
	ref.SetCtx(compute.Serial())
	refOut := detSteps(ref, 3)

	for _, threads := range []int{2, 4, 7} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			m := detModel()
			m.SetThreads(threads)
			out := detSteps(m, 3)

			od, rd := out.Data(), refOut.Data()
			for i := range rd {
				if od[i] != rd[i] {
					t.Fatalf("eval logits[%d]: %v (threads=%d) != %v (serial)", i, od[i], threads, rd[i])
				}
			}
			for pi, p := range m.Params() {
				rp := ref.Params()[pi]
				pv, rv := p.Value.Data(), rp.Value.Data()
				for i := range rv {
					if pv[i] != rv[i] {
						t.Fatalf("param %s value[%d]: %v != %v", p.Name, i, pv[i], rv[i])
					}
				}
				pg, rg := p.Grad.Data(), rp.Grad.Data()
				for i := range rg {
					if pg[i] != rg[i] {
						t.Fatalf("param %s grad[%d]: %v != %v", p.Name, i, pg[i], rg[i])
					}
				}
			}
		})
	}
}

// Per-layer bit-identity for the layers with non-trivial parallel
// reductions: conv and dense gradient accumulation, batch-norm statistics.
func TestLayerGradsBitIdenticalAcrossThreadCounts(t *testing.T) {
	type build func() Layer
	cases := []struct {
		name    string
		build   build
		inShape []int
	}{
		{"conv", func() Layer {
			return NewConv2D("c", 3, 6, 6, 5, 3, 1, 1, rand.New(rand.NewSource(80)))
		}, []int{9, 3, 6, 6}},
		{"dense", func() Layer {
			return NewDense("d", 12, 7, rand.New(rand.NewSource(81)))
		}, []int{9, 12}},
		{"batchnorm", func() Layer {
			return NewBatchNorm2D("bn", 5)
		}, []int{9, 5, 3, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(82))
			x := tensor.New(tc.inShape...).RandN(rng, 0, 1)

			type snapshot struct {
				out, dx []float64
				grads   [][]float64
			}
			runOne := func(ctx *compute.Ctx) snapshot {
				l := tc.build()
				for _, p := range l.Params() {
					p.ZeroGrad()
				}
				out := l.Forward(ctx, x, true)
				g := tensor.New(out.Shape()...).RandN(rand.New(rand.NewSource(83)), 0, 1)
				dx := l.Backward(ctx, g)
				s := snapshot{
					out: append([]float64(nil), out.Data()...),
					dx:  append([]float64(nil), dx.Data()...),
				}
				for _, p := range l.Params() {
					s.grads = append(s.grads, append([]float64(nil), p.Grad.Data()...))
				}
				return s
			}

			ref := runOne(compute.Serial())
			for _, threads := range []int{2, 4, 7} {
				got := runOne(compute.Get(threads))
				for i := range ref.out {
					if got.out[i] != ref.out[i] {
						t.Fatalf("threads=%d: out[%d] %v != %v", threads, i, got.out[i], ref.out[i])
					}
				}
				for i := range ref.dx {
					if got.dx[i] != ref.dx[i] {
						t.Fatalf("threads=%d: dx[%d] %v != %v", threads, i, got.dx[i], ref.dx[i])
					}
				}
				for pi := range ref.grads {
					for i := range ref.grads[pi] {
						if got.grads[pi][i] != ref.grads[pi][i] {
							t.Fatalf("threads=%d: param %d grad[%d] %v != %v",
								threads, pi, i, got.grads[pi][i], ref.grads[pi][i])
						}
					}
				}
			}
		})
	}
}

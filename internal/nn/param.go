// Package nn is a from-scratch neural-network substrate with manual
// backpropagation. It provides the layers needed for small residual
// convolutional classifiers (dense, conv2d, batch-norm, pooling, residual
// blocks), a softmax cross-entropy loss, and model utilities (named
// parameters, layer groups) used by the data-encoding attacks.
//
// The package exists because the paper's attack operates on a
// gradient-trained model's weights; reproducing it in pure Go requires a
// trainable substrate. See DESIGN.md §2 for the substitution argument.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Param is a trainable parameter with its gradient accumulator.
type Param struct {
	// Name uniquely identifies the parameter within a model,
	// e.g. "stage2.block0.conv1.w".
	Name string
	// Value holds the parameter tensor.
	Value *tensor.Tensor
	// Grad accumulates the loss gradient; it always has Value's shape.
	Grad *tensor.Tensor
	// Weight marks multiplicative weights (conv kernels, dense matrices).
	// Only weight parameters are used as data-encoding carriers; biases
	// and batch-norm affine parameters are excluded, matching the
	// correlated-value-encoding attack which correlates "parameters"
	// in the sense of weight matrices.
	Weight bool
	// ConvIndex is the 1-based index of the convolution/dense layer this
	// parameter belongs to, in forward order, or 0 for parameters that do
	// not belong to an indexed layer. The paper's layer groups ("layers
	// 1-12") are defined over this index.
	ConvIndex int

	// codebook is the eval view bound by BindCodebook; the zero value
	// (dense, empty) means the parameter evaluates from its float storage.
	codebook tensor.Weights
}

func newParam(name string, t *tensor.Tensor, weight bool) *Param {
	return &Param{
		Name:   name,
		Value:  t,
		Grad:   tensor.New(t.Shape()...),
		Weight: weight,
	}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Weights returns the view the eval kernels multiply by: the codebook view
// bound by BindCodebook, or else a dense view aliasing the parameter's
// float storage.
func (p *Param) Weights() tensor.Weights {
	if !p.codebook.IsDense() {
		return p.codebook
	}
	return tensor.DenseWeights(p.Value.Data())
}

// BindCodebook makes the parameter evaluate from a codebook view, element
// i having value lut[idx[i]] (both slices aliased, not copied), and drops
// the float value and gradient storage the view replaces: a quantized
// release is served at 1 byte per weight instead of 16. idx holds one
// index per element; tensor.CodebookWeights panics on a bad lookup table
// or index, so callers validate untrusted records first. A bound
// parameter is eval-only: its floats can no longer be trained or read.
func (p *Param) BindCodebook(lut []float64, idx []uint8) {
	p.codebook = tensor.CodebookWeights(lut, idx)
	p.Value.Release()
	p.Grad.Release()
}

// requireDense is the guard a weight layer calls on a train-mode forward:
// a codebook view is eval-only, because gradients flow into float storage
// the view does not alias.
func (p *Param) requireDense() {
	if !p.codebook.IsDense() {
		panic(fmt.Sprintf("nn: %s: training needs float weights (parameter is bound to a codebook view)", p.Name))
	}
}

// NumEl returns the number of scalar elements in the parameter. It is
// derived from the shape, so it stays correct after BindCodebook.
func (p *Param) NumEl() int { return p.Value.ShapeLen() }

func (p *Param) String() string {
	return fmt.Sprintf("%s%v", p.Name, p.Value.Shape())
}

package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// WeightsBackend supplies the weight views the inference path multiplies
// by. Layers with multiplicative weights (Conv2D, Dense) do not read their
// float parameter tensors directly during eval; they hold a tensor.Weights
// view obtained from a backend, so the physical weight representation is
// pluggable:
//
//   - the default DenseFloat backend returns views aliasing each parameter's
//     float storage — byte-identical to the pre-backend eval path;
//   - quantize.CodebookBackend returns codebook views over a released
//     model's quantization units, so eval runs LUT kernels over uint8
//     indices and never materializes dequantized weight tensors.
//
// Every backend must satisfy the bit-reproducibility contract: the view it
// returns for a parameter must evaluate bit-identically to a dense view of
// the same logical values (see the accumulation-order rule in
// internal/tensor). Backends affect inference only — training always goes
// through the float parameters, and a layer bound to a non-dense view
// panics on a train-mode forward.
type WeightsBackend interface {
	// Weights returns the eval view for a weight parameter. Called once
	// per parameter at bind time, not per forward pass.
	Weights(p *Param) tensor.Weights
}

// DenseFloat is the default backend: views alias the parameters' float
// storage. Binding it is a no-op in behavior — eval reads the same memory
// it always has.
type DenseFloat struct{}

// Weights implements WeightsBackend.
func (DenseFloat) Weights(p *Param) tensor.Weights {
	return tensor.DenseWeights(p.Value.Data())
}

// WeightBound is implemented by layers whose eval path multiplies by a
// weight view (Conv2D, Dense). Container and stateless layers do not
// implement it; SetWeightsBackend skips them.
type WeightBound interface {
	// BindWeights replaces the layer's eval weight view with one from b.
	BindWeights(b WeightsBackend)
}

// SetWeightsBackend rebinds every weight-bound layer's eval view to the
// given backend. Passing DenseFloat{} restores the default float path.
func (m *Model) SetWeightsBackend(b WeightsBackend) {
	Walk(m.Net, func(l Layer) {
		if wb, ok := l.(WeightBound); ok {
			wb.BindWeights(b)
		}
	})
}

// requireDenseForTrain is the guard every weight-bound layer calls on a
// train-mode forward: codebook views are eval-only because gradients flow
// into float parameters the view does not alias.
func requireDenseForTrain(name string, w tensor.Weights) {
	if !w.IsDense() {
		panic(fmt.Sprintf("nn: %s: training requires the dense weights backend (bound view is codebook)", name))
	}
}

package nn

import (
	"repro/internal/compute"
	"repro/internal/tensor"
)

// ReLU applies max(0, x) elementwise. The flat range is chunked across the
// execution context's workers; elementwise maps are bit-identical for any
// chunking.
type ReLU struct {
	name string
	mask []bool
}

// NewReLU creates a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Forward implements Layer.
func (r *ReLU) Forward(ctx *compute.Ctx, x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x.Clone()
	d := out.Data()
	if train {
		if cap(r.mask) < len(d) {
			r.mask = make([]bool, len(d))
		}
		r.mask = r.mask[:len(d)]
	}
	ctx.ForChunks(len(d), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pos := d[i] > 0
			if !pos {
				d[i] = 0
			}
			if train {
				r.mask[i] = pos
			}
		}
	})
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(ctx *compute.Ctx, grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	d := out.Data()
	ctx.ForChunks(len(d), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if !r.mask[i] {
				d[i] = 0
			}
		}
	})
	return out
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

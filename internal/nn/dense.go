package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/compute"
	"repro/internal/tensor"
)

// Dense is a fully connected layer: y = x·Wᵀ + b, with x of shape
// (N, in) and y of shape (N, out). The weight is stored (out, in). The
// batch dimension is sharded across the execution context's workers.
type Dense struct {
	name     string
	In, Out  int
	W, B     *Param
	lastIn   *tensor.Tensor
	dwPart   []float64 // per-sample dW partials, reduced in sample order
	withBias bool
}

// NewDense creates a dense layer with He-normal initialized weights.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	w := tensor.New(out, in).KaimingNormal(rng, in)
	b := tensor.New(out)
	return &Dense{
		name: name, In: in, Out: out,
		W:        newParam(name+".w", w, true),
		B:        newParam(name+".b", b, false),
		withBias: true,
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// Forward implements Layer.
func (d *Dense) Forward(ctx *compute.Ctx, x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	x2 := x.Reshape(n, x.Len()/n)
	if x2.Dim(1) != d.In {
		panic(fmt.Sprintf("nn: %s: input features %d, want %d", d.name, x2.Dim(1), d.In))
	}
	wv := d.W.Weights()
	if train {
		d.W.requireDense()
		d.lastIn = x2
	}
	y := tensor.New(n, d.Out)
	xd := x2.Data()
	yd := y.Data()
	var bd []float64
	if d.withBias {
		bd = d.B.Value.Data()
	}
	// Each output row depends only on its own input row, so chunking the
	// batch is a pure map: (N,in)·(out,in)ᵀ = (N,out) row by row.
	ctx.ForChunks(n, func(lo, hi int) {
		tensor.MatMulTWSlice(yd[lo*d.Out:hi*d.Out], xd[lo*d.In:hi*d.In], wv, hi-lo, d.In, d.Out)
		if bd != nil {
			for i := lo; i < hi; i++ {
				row := yd[i*d.Out : (i+1)*d.Out]
				for j := range row {
					row[j] += bd[j]
				}
			}
		}
	})
	return y
}

// Backward implements Layer. Per-sample weight-gradient outer products are
// staged in per-sample partials and reduced in sample order, keeping the
// accumulated gradient bit-identical for any worker count.
func (d *Dense) Backward(ctx *compute.Ctx, grad *tensor.Tensor) *tensor.Tensor {
	if d.lastIn == nil {
		panic(fmt.Sprintf("nn: %s: Backward before Forward(train)", d.name))
	}
	n := grad.Dim(0)
	g2 := grad.Reshape(n, grad.Len()/n)
	gd := g2.Data()
	xd := d.lastIn.Data()
	wd := d.W.Value.Data()
	wSize := d.Out * d.In
	if cap(d.dwPart) < n*wSize {
		d.dwPart = make([]float64, n*wSize)
	}
	d.dwPart = d.dwPart[:n*wSize]
	dx := tensor.New(n, d.In)
	dxd := dx.Data()
	ctx.ForChunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// dW_i = g_i ⊗ x_i : (out,1)·(1,in)
			gi := gd[i*d.Out : (i+1)*d.Out]
			xi := xd[i*d.In : (i+1)*d.In]
			dwi := d.dwPart[i*wSize : (i+1)*wSize]
			for o, gv := range gi {
				row := dwi[o*d.In : (o+1)*d.In]
				if gv == 0 {
					for j := range row {
						row[j] = 0
					}
					continue
				}
				for j, xv := range xi {
					row[j] = gv * xv
				}
			}
		}
		// dx = g·W : (N,out)·(out,in) = (N,in), row-independent.
		tensor.MatMulSlice(dxd[lo*d.In:hi*d.In], gd[lo*d.Out:hi*d.Out], wd, hi-lo, d.Out, d.In)
	})
	// Deterministic reduction in sample order.
	wg := d.W.Grad.Data()
	for i := 0; i < n; i++ {
		dwi := d.dwPart[i*wSize : (i+1)*wSize]
		for j, v := range dwi {
			wg[j] += v
		}
	}
	if d.withBias {
		gb := d.B.Grad.Data()
		for i := 0; i < n; i++ {
			row := gd[i*d.Out : (i+1)*d.Out]
			for j := range row {
				gb[j] += row[j]
			}
		}
	}
	return dx
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

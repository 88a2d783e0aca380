package nn

import (
	"repro/internal/compute"
	"repro/internal/tensor"
)

// GlobalAvgPool averages each channel's spatial map, mapping
// (N, C, H, W) to (N, C). The batch is sharded across workers.
type GlobalAvgPool struct {
	name    string
	C, H, W int
}

// NewGlobalAvgPool creates a global average pooling layer.
func NewGlobalAvgPool(name string, c, h, w int) *GlobalAvgPool {
	return &GlobalAvgPool{name: name, C: c, H: h, W: w}
}

// Name implements Layer.
func (p *GlobalAvgPool) Name() string { return p.name }

// Forward implements Layer.
func (p *GlobalAvgPool) Forward(ctx *compute.Ctx, x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	spatial := p.H * p.W
	out := tensor.New(n, p.C)
	xd := x.Data()
	od := out.Data()
	inv := 1.0 / float64(spatial)
	ctx.For(n, func(b int, _ *compute.Arena) {
		for c := 0; c < p.C; c++ {
			base := (b*p.C + c) * spatial
			s := 0.0
			for i := 0; i < spatial; i++ {
				s += xd[base+i]
			}
			od[b*p.C+c] = s * inv
		}
	})
	return out
}

// Backward implements Layer.
func (p *GlobalAvgPool) Backward(ctx *compute.Ctx, grad *tensor.Tensor) *tensor.Tensor {
	n := grad.Dim(0)
	spatial := p.H * p.W
	dx := tensor.New(n, p.C, p.H, p.W)
	dd := dx.Data()
	gd := grad.Data()
	inv := 1.0 / float64(spatial)
	ctx.For(n, func(b int, _ *compute.Arena) {
		for c := 0; c < p.C; c++ {
			g := gd[b*p.C+c] * inv
			base := (b*p.C + c) * spatial
			for i := 0; i < spatial; i++ {
				dd[base+i] = g
			}
		}
	})
	return dx
}

// Params implements Layer.
func (p *GlobalAvgPool) Params() []*Param { return nil }

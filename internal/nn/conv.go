package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/compute"
	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW batches with uniform stride and
// zero padding. Weights are stored (outC, inC*kh*kw) so the forward pass is
// a single matmul against the im2col patch matrix per sample. The batch is
// sharded across the execution context's workers, and every patch matrix
// is per-sample scratch from the worker arenas: Backward rebuilds the
// transposed patches from the cached input rather than keeping the forward
// pass's.
type Conv2D struct {
	name    string
	Dims    tensor.ConvDims
	W, B    *Param
	lastIn  *tensor.Tensor
	rowRuns tensor.Runs // W's row runs, scanned once per forward pass
	colRuns tensor.Runs // W's column runs, scanned once per backward pass
	dwPart  []float64   // per-sample dW partials, reduced in sample order
	dbPart  []float64   // per-sample db partials, reduced in sample order
	lastN   int
	useBias bool
}

// NewConv2D creates a convolution layer with He-normal initialization.
func NewConv2D(name string, inC, inH, inW, outC, k, stride, pad int, rng *rand.Rand) *Conv2D {
	d := tensor.NewConvDims(inC, inH, inW, outC, k, k, stride, pad)
	w := tensor.New(outC, d.ColRows).KaimingNormal(rng, d.ColRows)
	b := tensor.New(outC)
	return &Conv2D{
		name: name, Dims: d,
		W:       newParam(name+".w", w, true),
		B:       newParam(name+".b", b, false),
		useBias: true,
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// OutShape returns the per-sample output dimensions (C, H, W).
func (c *Conv2D) OutShape() (int, int, int) {
	return c.Dims.OutC, c.Dims.OutH, c.Dims.OutW
}

// Forward implements Layer. Input must be (N, inC, inH, inW) or a flat
// (N, inC*inH*inW).
func (c *Conv2D) Forward(ctx *compute.Ctx, x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	if x.Len()/n != c.Dims.InElems {
		panic(fmt.Sprintf("nn: %s: input has %d elems/sample, want %d", c.name, x.Len()/n, c.Dims.InElems))
	}
	colSize := c.Dims.ColRows * c.Dims.Cols
	wv := c.W.Weights()
	if train {
		c.W.requireDense()
		c.lastIn = x
		c.lastN = n
	}
	out := tensor.New(n, c.Dims.OutC, c.Dims.OutH, c.Dims.OutW)
	xd := x.Data()
	od := out.Data()
	c.rowRuns.ScanRows(wv, c.Dims.OutC, c.Dims.ColRows)
	var bd []float64
	if c.useBias {
		bd = c.B.Value.Data()
	}
	spatial := c.Dims.Cols
	ctx.For(n, func(i int, a *compute.Arena) {
		col := a.Floats(colSize)
		tensor.Im2Col(c.Dims, xd[i*c.Dims.InElems:(i+1)*c.Dims.InElems], col)
		oSample := od[i*c.Dims.OutElems : (i+1)*c.Dims.OutElems]
		tensor.MatMulWSlice(oSample, wv, &c.rowRuns, col, c.Dims.OutC, c.Dims.ColRows, spatial)
		if bd != nil {
			for ch := 0; ch < c.Dims.OutC; ch++ {
				bv := bd[ch]
				row := oSample[ch*spatial : (ch+1)*spatial]
				for j := range row {
					row[j] += bv
				}
			}
		}
	})
	return out
}

// Backward implements Layer. Per-sample dW/db contributions land in
// per-sample partial buffers, which are then reduced serially in sample
// order — the same floating-point order as a serial per-sample loop, so the
// accumulated gradients are bit-identical for any worker count.
func (c *Conv2D) Backward(ctx *compute.Ctx, grad *tensor.Tensor) *tensor.Tensor {
	if c.lastIn == nil {
		panic(fmt.Sprintf("nn: %s: Backward before Forward(train)", c.name))
	}
	n := c.lastN
	colSize := c.Dims.ColRows * c.Dims.Cols
	xd := c.lastIn.Data()
	gd := grad.Data()
	dx := tensor.New(n, c.Dims.InC, c.Dims.InH, c.Dims.InW)
	dxd := dx.Data()
	spatial := c.Dims.Cols
	wSize := c.Dims.OutC * c.Dims.ColRows
	wd := c.W.Value.Data()
	c.colRuns.ScanCols(wd, c.Dims.OutC, c.Dims.ColRows)
	if cap(c.dwPart) < n*wSize {
		c.dwPart = make([]float64, n*wSize)
	}
	c.dwPart = c.dwPart[:n*wSize]
	if c.useBias {
		if cap(c.dbPart) < n*c.Dims.OutC {
			c.dbPart = make([]float64, n*c.Dims.OutC)
		}
		c.dbPart = c.dbPart[:n*c.Dims.OutC]
	}
	ctx.For(n, func(i int, a *compute.Arena) {
		gSample := gd[i*c.Dims.OutElems : (i+1)*c.Dims.OutElems]
		// dW_i = g·colᵀ : (outC,cols)·(cols,colRows) over every term,
		// with colᵀ rebuilt from the cached input.
		colT := a.Floats(colSize)
		tensor.Im2Row(c.Dims, xd[i*c.Dims.InElems:(i+1)*c.Dims.InElems], colT)
		tensor.MatMulNoSkipSlice(c.dwPart[i*wSize:(i+1)*wSize], gSample, colT, c.Dims.OutC, spatial, c.Dims.ColRows)
		// dcol = Wᵀ·g : (colRows,outC)·(outC,cols)
		dcol := a.Floats(colSize)
		tensor.TMatMulSlice(dcol, wd, &c.colRuns, gSample, c.Dims.OutC, c.Dims.ColRows, spatial)
		tensor.Col2Im(c.Dims, dcol, dxd[i*c.Dims.InElems:(i+1)*c.Dims.InElems])
		if c.useBias {
			for ch := 0; ch < c.Dims.OutC; ch++ {
				row := gSample[ch*spatial : (ch+1)*spatial]
				s := 0.0
				for _, v := range row {
					s += v
				}
				c.dbPart[i*c.Dims.OutC+ch] = s
			}
		}
	})
	// Deterministic reduction: sample order, independent of thread count.
	wg := c.W.Grad.Data()
	bg := c.B.Grad.Data()
	for i := 0; i < n; i++ {
		dwi := c.dwPart[i*wSize : (i+1)*wSize]
		for j, v := range dwi {
			wg[j] += v
		}
		if c.useBias {
			dbi := c.dbPart[i*c.Dims.OutC : (i+1)*c.Dims.OutC]
			for ch, v := range dbi {
				bg[ch] += v
			}
		}
	}
	return dx
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// im2colRef is the per-element Im2Col loop the production one replaced,
// kept as its reference: one bounds test per patch element.
func im2colRef(d ConvDims, src, dst []float64) {
	idx := 0
	for c := 0; c < d.InC; c++ {
		chBase := c * d.InH * d.InW
		for ky := 0; ky < d.KH; ky++ {
			for kx := 0; kx < d.KW; kx++ {
				row := dst[idx*d.Cols : (idx+1)*d.Cols]
				idx++
				j := 0
				for oy := 0; oy < d.OutH; oy++ {
					iy := oy*d.Stride - d.Pad + ky
					for ox := 0; ox < d.OutW; ox++ {
						ix := ox*d.Stride - d.Pad + kx
						if iy < 0 || iy >= d.InH || ix < 0 || ix >= d.InW {
							row[j] = 0
						} else {
							row[j] = src[chBase+iy*d.InW+ix]
						}
						j++
					}
				}
			}
		}
	}
}

// col2imRef is the per-element Col2Im loop the production one replaced,
// kept as its reference.
func col2imRef(d ConvDims, src, dst []float64) {
	clear(dst)
	idx := 0
	for c := 0; c < d.InC; c++ {
		chBase := c * d.InH * d.InW
		for ky := 0; ky < d.KH; ky++ {
			for kx := 0; kx < d.KW; kx++ {
				row := src[idx*d.Cols : (idx+1)*d.Cols]
				idx++
				j := 0
				for oy := 0; oy < d.OutH; oy++ {
					iy := oy*d.Stride - d.Pad + ky
					for ox := 0; ox < d.OutW; ox++ {
						ix := ox*d.Stride - d.Pad + kx
						if iy >= 0 && iy < d.InH && ix >= 0 && ix < d.InW {
							dst[chBase+iy*d.InW+ix] += row[j]
						}
						j++
					}
				}
			}
		}
	}
}

// patchGeoms are every geometry the models build (3×3 stride 1 and 2 with
// pad 1, and the 1×1 stride-2 projection) plus odd ones: a kernel wider
// than the padded input, pad 2, stride 3, a non-square input, and a
// 1×1 output whose first kernel column reads only padding while the
// next ones read the input.
var patchGeoms = []ConvDims{
	NewConvDims(3, 12, 12, 6, 3, 3, 1, 1),
	NewConvDims(6, 12, 12, 12, 3, 3, 2, 1),
	NewConvDims(6, 12, 12, 12, 1, 1, 2, 0),
	NewConvDims(2, 3, 3, 2, 4, 4, 2, 0),
	NewConvDims(2, 5, 5, 2, 3, 3, 1, 2),
	NewConvDims(2, 7, 7, 2, 3, 3, 3, 1),
	NewConvDims(3, 5, 7, 2, 3, 3, 2, 1),
	NewConvDims(2, 3, 3, 2, 3, 3, 4, 1),
}

// TestPatchBuildersMatchReference pins Im2Col, Col2Im and Im2Row bit for
// bit to the per-element loops: Im2Row against the transpose of Im2Col's
// reference, and Col2Im, whose sums depend on the order each input element
// takes its terms in, over values of wildly different magnitudes.
func TestPatchBuildersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, d := range patchGeoms {
		t.Run(fmt.Sprintf("%dx%dx%d_k%dx%d_s%d_p%d", d.InC, d.InH, d.InW, d.KH, d.KW, d.Stride, d.Pad), func(t *testing.T) {
			for mode := 0; mode < 3; mode++ {
				x := make([]float64, d.InElems)
				fillCases(rng, x, mode)
				want := make([]float64, d.ColRows*d.Cols)
				got := make([]float64, d.ColRows*d.Cols)
				fillCases(rng, got, 0) // stale arena contents must be overwritten
				im2colRef(d, x, want)
				Im2Col(d, x, got)
				bitEqual(t, "Im2Col", got, want)

				fillCases(rng, got, 0)
				Im2Row(d, x, got)
				bitEqual(t, "Im2Row", got, transposeOf(want, d.ColRows, d.Cols))

				y := make([]float64, d.ColRows*d.Cols)
				fillCases(rng, y, 2)
				wantX := make([]float64, d.InElems)
				gotX := make([]float64, d.InElems)
				fillCases(rng, gotX, 0)
				col2imRef(d, y, wantX)
				Col2Im(d, y, gotX)
				bitEqual(t, "Col2Im", gotX, wantX)
			}
		})
	}
}

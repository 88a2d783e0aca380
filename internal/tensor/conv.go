package tensor

import "fmt"

// ConvDims describes a 2-D convolution geometry over NCHW tensors.
type ConvDims struct {
	InC, InH, InW int // input channels, height, width
	OutC          int // output channels
	KH, KW        int // kernel height, width
	Stride, Pad   int // uniform stride and zero padding
	OutH, OutW    int // derived output spatial dims
	ColRows, Cols int // derived im2col matrix dims per sample
	InElems       int // InC*InH*InW
	OutElems      int // OutC*OutH*OutW
}

// NewConvDims validates and derives a convolution geometry.
func NewConvDims(inC, inH, inW, outC, kh, kw, stride, pad int) ConvDims {
	if stride <= 0 {
		panic("tensor: conv stride must be positive")
	}
	outH := (inH+2*pad-kh)/stride + 1
	outW := (inW+2*pad-kw)/stride + 1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("tensor: conv produces empty output: in %dx%d kernel %dx%d stride %d pad %d", inH, inW, kh, kw, stride, pad))
	}
	d := ConvDims{
		InC: inC, InH: inH, InW: inW, OutC: outC,
		KH: kh, KW: kw, Stride: stride, Pad: pad,
		OutH: outH, OutW: outW,
	}
	d.ColRows = inC * kh * kw
	d.Cols = outH * outW
	d.InElems = inC * inH * inW
	d.OutElems = outC * outH * outW
	return d
}

// validRange returns the output positions [lo, hi) of one axis whose
// input coordinate o*stride - pad + k lies inside [0, in).
func validRange(out, in, stride, pad, k int) (lo, hi int) {
	if pad > k {
		lo = (pad - k + stride - 1) / stride
	}
	hi = 0
	if last := in - 1 + pad - k; last >= 0 {
		hi = min(last/stride+1, out)
	}
	return min(lo, hi), hi
}

// Im2Col expands one NCHW sample (flattened in src, length d.InElems) into a
// (ColRows × Cols) patch matrix written into dst (length ColRows*Cols).
// Column j holds the receptive field of output pixel j, channel-major.
// Each kernel position's valid output range is found once; the interior is
// copied (stride 1) or gathered, and only the padded edges are zeroed.
func Im2Col(d ConvDims, src, dst []float64) {
	if len(src) != d.InElems || len(dst) != d.ColRows*d.Cols {
		panic(fmt.Sprintf("tensor: Im2Col buffer sizes src=%d dst=%d want %d,%d", len(src), len(dst), d.InElems, d.ColRows*d.Cols))
	}
	s := d.Stride
	row := dst
	for c := 0; c < d.InC; c++ {
		ch := src[c*d.InH*d.InW : (c+1)*d.InH*d.InW]
		for ky := 0; ky < d.KH; ky++ {
			oy0, oy1 := validRange(d.OutH, d.InH, s, d.Pad, ky)
			for kx := 0; kx < d.KW; kx++ {
				ox0, ox1 := validRange(d.OutW, d.InW, s, d.Pad, kx)
				oyEnd := oy1
				if ox0 == ox1 {
					oyEnd = oy0
				}
				clear(row[:oy0*d.OutW])
				for oy := oy0; oy < oyEnd; oy++ {
					seg := row[oy*d.OutW : (oy+1)*d.OutW]
					// in[0] is the input under output column ox0.
					in := ch[(oy*s-d.Pad+ky)*d.InW+ox0*s-d.Pad+kx:]
					clear(seg[:ox0])
					if s == 1 {
						copy(seg[ox0:ox1], in)
					} else {
						for ox := ox0; ox < ox1; ox++ {
							seg[ox] = in[(ox-ox0)*s]
						}
					}
					clear(seg[ox1:])
				}
				clear(row[oyEnd*d.OutW : d.Cols])
				row = row[d.Cols:]
			}
		}
	}
}

// Im2Row writes the transpose of Im2Col's patch matrix, (Cols × ColRows):
// row j holds output pixel j's receptive field, channel-major. It walks
// the input as Im2Col does, writing each kernel position down a column of
// dst.
func Im2Row(d ConvDims, src, dst []float64) {
	if len(src) != d.InElems || len(dst) != d.ColRows*d.Cols {
		panic(fmt.Sprintf("tensor: Im2Row buffer sizes src=%d dst=%d want %d,%d", len(src), len(dst), d.InElems, d.ColRows*d.Cols))
	}
	s, cr := d.Stride, d.ColRows
	r := 0
	for c := 0; c < d.InC; c++ {
		ch := src[c*d.InH*d.InW : (c+1)*d.InH*d.InW]
		for ky := 0; ky < d.KH; ky++ {
			oy0, oy1 := validRange(d.OutH, d.InH, s, d.Pad, ky)
			for kx := 0; kx < d.KW; kx++ {
				ox0, ox1 := validRange(d.OutW, d.InW, s, d.Pad, kx)
				col := dst[r:]
				r++
				for oy := 0; oy < d.OutH; oy++ {
					out := col[oy*d.OutW*cr:]
					if oy < oy0 || oy >= oy1 || ox0 == ox1 {
						for ox := 0; ox < d.OutW; ox++ {
							out[ox*cr] = 0
						}
						continue
					}
					// in[0] is the input under output column ox0.
					in := ch[(oy*s-d.Pad+ky)*d.InW+ox0*s-d.Pad+kx:]
					for ox := 0; ox < ox0; ox++ {
						out[ox*cr] = 0
					}
					for ox := ox0; ox < ox1; ox++ {
						out[ox*cr] = in[(ox-ox0)*s]
					}
					for ox := ox1; ox < d.OutW; ox++ {
						out[ox*cr] = 0
					}
				}
			}
		}
	}
}

// Col2Im scatters a (ColRows × Cols) patch-gradient matrix back into an
// input-gradient buffer dst (length d.InElems), accumulating overlaps.
// dst is zeroed first. Kernel positions are visited in (c, ky, kx) order
// and, within one, each dst element receives at most one term, so every
// element takes its terms in (c, ky, kx) order.
func Col2Im(d ConvDims, src, dst []float64) {
	if len(dst) != d.InElems || len(src) != d.ColRows*d.Cols {
		panic(fmt.Sprintf("tensor: Col2Im buffer sizes src=%d dst=%d want %d,%d", len(src), len(dst), d.ColRows*d.Cols, d.InElems))
	}
	clear(dst)
	s := d.Stride
	row := src
	for c := 0; c < d.InC; c++ {
		ch := dst[c*d.InH*d.InW : (c+1)*d.InH*d.InW]
		for ky := 0; ky < d.KH; ky++ {
			oy0, oy1 := validRange(d.OutH, d.InH, s, d.Pad, ky)
			for kx := 0; kx < d.KW; kx++ {
				ox0, ox1 := validRange(d.OutW, d.InW, s, d.Pad, kx)
				for oy := oy0; oy < oy1 && ox0 < ox1; oy++ {
					seg := row[oy*d.OutW+ox0 : oy*d.OutW+ox1]
					// out[0] is the input under output column ox0.
					out := ch[(oy*s-d.Pad+ky)*d.InW+ox0*s-d.Pad+kx:]
					for j, v := range seg {
						out[j*s] += v
					}
				}
				row = row[d.Cols:]
			}
		}
	}
}

package img

import (
	"fmt"
	"math"
)

// MAPE returns the mean absolute pixel error between a reconstruction and
// the original, the paper's primary reconstruction-quality metric:
//
//	MAPE = (1/u) Σ |x_i − x'_i|
//
// Both images must have identical geometry. Lower is better; the paper
// counts an image as "badly encoded" when MAPE > 20 and as high quality
// when MAPE < 20.
func MAPE(orig, recon *Image) float64 {
	checkSame("MAPE", orig, recon)
	s := 0.0
	for i, v := range orig.Pix {
		s += math.Abs(v - recon.Pix[i])
	}
	return s / float64(len(orig.Pix))
}

// BadThreshold is the paper's MAPE cutoff separating badly encoded images
// (MAPE > 20, Table II) from recognizable ones (Tables I, III, IV).
const BadThreshold = 20.0

// Recognizable reports whether the reconstruction meets the paper's
// quality bar (MAPE < BadThreshold).
func Recognizable(orig, recon *Image) bool {
	return MAPE(orig, recon) < BadThreshold
}

// SSIM computes the mean structural similarity index (Wang et al., 2004)
// over sliding 8×8 windows with stride 4, on the grayscale rendering of the
// inputs. Values are in [-1, 1]; 1 means identical structure. The paper
// uses SSIM > 0.5 as the face-texture quality bar (Table IV).
func SSIM(orig, recon *Image) float64 {
	checkSame("SSIM", orig, recon)
	a := orig.Gray()
	b := recon.Gray()
	const (
		win    = 8
		stride = 4
		L      = 255.0
	)
	c1 := (0.01 * L) * (0.01 * L)
	c2 := (0.03 * L) * (0.03 * L)
	h, w := a.H, a.W
	if h < win || w < win {
		// Degenerate small image: single global window.
		return ssimWindow(a.Pix, b.Pix, c1, c2)
	}
	total, count := 0.0, 0
	for y := 0; y+win <= h; y += stride {
		for x := 0; x+win <= w; x += stride {
			wa := gatherWindow(a, y, x, win)
			wb := gatherWindow(b, y, x, win)
			total += ssimWindow(wa, wb, c1, c2)
			count++
		}
	}
	return total / float64(count)
}

func gatherWindow(im *Image, y0, x0, win int) []float64 {
	out := make([]float64, win*win)
	i := 0
	for y := y0; y < y0+win; y++ {
		base := y * im.W
		for x := x0; x < x0+win; x++ {
			out[i] = im.Pix[base+x]
			i++
		}
	}
	return out
}

func ssimWindow(a, b []float64, c1, c2 float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var va, vb, cov float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		va += da * da
		vb += db * db
		cov += da * db
	}
	va /= n - 1
	vb /= n - 1
	cov /= n - 1
	num := (2*ma*mb + c1) * (2*cov + c2)
	den := (ma*ma + mb*mb + c1) * (va + vb + c2)
	return num / den
}

func checkSame(op string, a, b *Image) {
	if a.C != b.C || a.H != b.H || a.W != b.W {
		panic(fmt.Sprintf("img: %s on mismatched images %dx%dx%d vs %dx%dx%d",
			op, a.C, a.H, a.W, b.C, b.H, b.W))
	}
}

package attack

import (
	"math"
	"sort"

	"repro/internal/img"
	"repro/internal/nn"
)

// DecodeOptions controls weight→image extraction.
type DecodeOptions struct {
	// Percentile, when positive, trims that fraction off both ends of the
	// weight range before the linear remap to [0,255], making the decode
	// robust to a handful of outlier weights at the cost of a slight
	// contrast stretch. 0 (the default) uses the plain min/max remap the
	// paper describes ("simply remapping these parameters to values in
	// the range of [0,255]").
	Percentile float64
	// ForcePolarity, when non-zero, skips the smoothness heuristic and
	// decodes with the given correlation sign (+1 or −1). The adversary
	// normally leaves this zero: natural images are smooth, their
	// negatives equally so, but a *wrong* polarity against a payload
	// whose weights correlate positively produces inverted images that
	// the total-variation vote detects relative to the payload ordering.
	ForcePolarity int
	// TargetMean and TargetStd, when TargetStd > 0, switch the remap from
	// min/max to moment matching: pixels are decoded as
	// (w − mean(w))/std(w)·TargetStd + TargetMean. The adversary knows
	// these domain statistics — the pre-processing step selected targets
	// from a pixel-std window of its own choosing, and natural-image
	// brightness statistics are public knowledge — so this is the decode
	// a real attacker runs. Moment matching is far more robust than
	// min/max against the Gaussian tails of trained weights.
	TargetMean, TargetStd float64
}

// DecodeGroup extracts the images a plan group encoded into its layer
// group's weights, exactly as the released-model adversary would: flatten
// the group's weights, take the payload prefix, linearly remap the robust
// weight range to [0, 255] (the paper's "simply remapping these parameters
// to values in the range of [0,255]"), choose the correlation polarity by a
// total-variation smoothness vote, and slice the result into images.
func DecodeGroup(pg PlanGroup, group nn.LayerGroup, geom [3]int, opt DecodeOptions) []*img.Image {
	if len(pg.Images) == 0 {
		return nil
	}
	c, h, w := geom[0], geom[1], geom[2]
	u := c * h * w
	flat := group.FlattenValues()
	need := len(pg.Images) * u
	if need > len(flat) {
		need = len(flat) / u * u
	}
	flat = flat[:need]
	if len(flat) == 0 {
		return nil
	}

	pix := make([]float64, len(flat))
	if opt.TargetStd > 0 {
		// Moment-matching remap.
		var mean float64
		for _, v := range flat {
			mean += v
		}
		mean /= float64(len(flat))
		var ss float64
		for _, v := range flat {
			d := v - mean
			ss += d * d
		}
		std := math.Sqrt(ss / float64(len(flat)))
		if std == 0 {
			std = 1e-12
		}
		k := opt.TargetStd / std
		for i, v := range flat {
			p := (v-mean)*k + opt.TargetMean
			if p < 0 {
				p = 0
			} else if p > 255 {
				p = 255
			}
			pix[i] = p
		}
	} else {
		// Plain (optionally trimmed) min/max remap to [0, 255].
		lo, hi := robustRange(flat, percentileOf(opt))
		if hi <= lo {
			hi = lo + 1e-12
		}
		scale := 255.0 / (hi - lo)
		for i, v := range flat {
			p := (v - lo) * scale
			if p < 0 {
				p = 0
			} else if p > 255 {
				p = 255
			}
			pix[i] = p
		}
	}

	polarity := opt.ForcePolarity
	if polarity == 0 {
		polarity = choosePolarity(pix, u, c, h, w)
	}
	if polarity < 0 {
		for i := range pix {
			pix[i] = 255 - pix[i]
		}
	}

	nImg := len(pix) / u
	out := make([]*img.Image, 0, nImg)
	for k := 0; k < nImg; k++ {
		im := img.New(c, h, w)
		copy(im.Pix, pix[k*u:(k+1)*u])
		out = append(out, im)
	}
	return out
}

func percentileOf(opt DecodeOptions) float64 {
	if opt.Percentile <= 0 {
		return 0
	}
	return opt.Percentile
}

// robustRange returns the (p, 1−p) percentile bounds of values.
func robustRange(values []float64, p float64) (float64, float64) {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0], sorted[len(sorted)-1]
	}
	loIdx := int(p * float64(len(sorted)))
	hiIdx := len(sorted) - 1 - loIdx
	if hiIdx <= loIdx {
		return sorted[0], sorted[len(sorted)-1]
	}
	return sorted[loIdx], sorted[hiIdx]
}

// choosePolarity votes between the decode and its negative using total
// variation: the correlation drives weights toward a·s+b with a of one
// sign; the correct polarity reproduces the (smooth) images while the wrong
// one reproduces their negatives. TV alone cannot distinguish an image from
// its negative, so the vote instead measures agreement of inter-image
// boundaries: in the correct polarity, the first pixel row of image k+1 is
// statistically unrelated to the last row of image k in the same way the
// payload was, while a sign flip breaks the brightness continuity that the
// shared remap introduces. In practice the decisive signal is the global
// histogram skew: natural pixel payloads (and this repo's generators)
// have mean below the 127.5 midpoint of the remapped range far more often
// than above it after correlation training, so the vote picks the polarity
// whose mean is closer to the payload-typical regime. Both signals are
// cheap; they agree on every dataset in this repo's tests.
func choosePolarity(pix []float64, u, c, h, w int) int {
	// Signal 1: darkness skew. The remap sends the weight distribution's
	// lower tail to 0; a positively correlated encode puts the (more
	// common) dark pixels there.
	var mean float64
	for _, v := range pix {
		mean += v
	}
	mean /= float64(len(pix))

	// Signal 2: total variation of a few sampled images vs their
	// negatives is identical, but TV of the *gradient-of-brightness*
	// against the typical vignette (borders darker than centers in
	// natural crops) is not. Compute border-minus-center brightness.
	nImg := len(pix) / u
	sampled := nImg
	if sampled > 16 {
		sampled = 16
	}
	var borderMinusCenter float64
	hw := h * w
	for k := 0; k < sampled; k++ {
		base := k * u
		var border, center float64
		var nb, nc int
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v := pix[base+y*w+x] // first channel is enough
				if y == 0 || y == h-1 || x == 0 || x == w-1 {
					border += v
					nb++
				} else if y > h/4 && y < 3*h/4 && x > w/4 && x < 3*w/4 {
					center += v
					nc++
				}
			}
		}
		if nb > 0 && nc > 0 {
			borderMinusCenter += border/float64(nb) - center/float64(nc)
		}
		_ = hw
	}

	// Natural crops (and both synthetic generators) are center-bright:
	// expect border < center. If the decode is center-dark and bright
	// overall, it is likely inverted.
	score := 0
	if mean <= 127.5 {
		score++
	} else {
		score--
	}
	if borderMinusCenter <= 0 {
		score++
	} else {
		score--
	}
	if score >= 0 {
		return 1
	}
	return -1
}

// GroupWeightsAsPixels returns the payload prefix of a group's weights
// remapped to [0,255] without polarity correction — the raw view used by
// the distribution figures (Fig 2a, Fig 3).
func GroupWeightsAsPixels(group nn.LayerGroup, n int) []float64 {
	flat := group.FlattenValues()
	if n > 0 && n < len(flat) {
		flat = flat[:n]
	}
	lo, hi := robustRange(flat, 0.005)
	if hi <= lo {
		hi = lo + 1e-12
	}
	out := make([]float64, len(flat))
	scale := 255.0 / (hi - lo)
	for i, v := range flat {
		p := (v - lo) * scale
		out[i] = math.Max(0, math.Min(255, p))
	}
	return out
}

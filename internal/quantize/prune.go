package quantize

import (
	"math"
	"sort"

	"repro/internal/nn"
)

// Magnitude pruning is the other hardware-oriented compression the paper
// names (Sec. II-A): connections with the smallest absolute weights are
// removed. It is implemented here both for completeness of the compression
// substrate and as an extension experiment — how much of the encoded
// payload survives pruning (see BenchmarkAblationPruning).

// PruneMagnitude zeroes the fraction `sparsity` of the smallest-magnitude
// weights across params (global threshold, the deep-compression strategy).
func PruneMagnitude(params []*nn.Param, sparsity float64) {
	if sparsity < 0 || sparsity >= 1 {
		panic("quantize: sparsity must be in [0, 1)")
	}
	var all []float64
	for _, p := range params {
		for _, v := range p.Value.Data() {
			all = append(all, math.Abs(v))
		}
	}
	sort.Float64s(all)
	k := int(sparsity * float64(len(all)))
	cut := 0.0
	if k > 0 {
		cut = all[k-1]
	}
	zeroed := 0
	for _, p := range params {
		vd := p.Value.Data()
		for i, v := range vd {
			if math.Abs(v) <= cut && zeroed < k {
				vd[i] = 0
				zeroed++
			}
		}
	}
}

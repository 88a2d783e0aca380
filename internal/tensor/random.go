package tensor

import (
	"math"
	"math/rand"
)

// RandN fills t with samples from N(mean, std²) drawn from rng.
func (t *Tensor) RandN(rng *rand.Rand, mean, std float64) *Tensor {
	for i := range t.data {
		t.data[i] = float64(rng.NormFloat64()*std) + mean
	}
	return t
}

// RandU fills t with samples uniform in [lo, hi).
func (t *Tensor) RandU(rng *rand.Rand, lo, hi float64) *Tensor {
	for i := range t.data {
		t.data[i] = lo + float64(rng.Float64()*(hi-lo))
	}
	return t
}

// KaimingNormal fills t with He-normal initialization for a layer with the
// given fan-in, the standard init for ReLU networks.
func (t *Tensor) KaimingNormal(rng *rand.Rand, fanIn int) *Tensor {
	if fanIn <= 0 {
		fanIn = 1
	}
	std := math.Sqrt(2.0 / float64(fanIn))
	return t.RandN(rng, 0, std)
}

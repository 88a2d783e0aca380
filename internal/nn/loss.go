package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss over a batch of
// logits (N, K) with integer class labels, and the gradient of that loss
// with respect to the logits. The softmax is computed in a numerically
// stable way (max subtraction).
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, grad *tensor.Tensor) {
	return SoftmaxCrossEntropyTotal(logits, labels, logits.Dim(0))
}

// SoftmaxCrossEntropyTotal is SoftmaxCrossEntropy with the mean taken over
// `total` samples instead of the rows present: loss and gradient are scaled
// by 1/total. The data-parallel trainer passes the *global* batch size while
// feeding one shard's rows, so every shard's gradient partial lands directly
// in global-mean scale and the shard-order fold of the partials equals the
// whole-batch mean gradient without any rescaling step. With
// total == logits.Dim(0) this is exactly SoftmaxCrossEntropy (same
// expressions, same rounding).
func SoftmaxCrossEntropyTotal(logits *tensor.Tensor, labels []int, total int) (loss float64, grad *tensor.Tensor) {
	n := logits.Dim(0)
	k := logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), n))
	}
	if total < n {
		panic(fmt.Sprintf("nn: loss total %d smaller than batch %d", total, n))
	}
	grad = tensor.New(n, k)
	ld := logits.Data()
	gd := grad.Data()
	invN := 1.0 / float64(total)
	for i := 0; i < n; i++ {
		row := ld[i*k : (i+1)*k]
		grow := gd[i*k : (i+1)*k]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - maxV)
			grow[j] = e
			sum += e
		}
		y := labels[i]
		if y < 0 || y >= k {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, k))
		}
		p := grow[y] / sum
		if p < 1e-300 {
			p = 1e-300
		}
		loss -= math.Log(p)
		for j := range grow {
			grow[j] = grow[j] / sum * invN
		}
		grow[y] -= invN
	}
	return loss * invN, grad
}

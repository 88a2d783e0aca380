package tensor

import (
	"fmt"
	"math"
)

// Add computes t += o elementwise.
func (t *Tensor) Add(o *Tensor) *Tensor {
	checkSameLen("Add", t, o)
	for i, v := range o.data {
		t.data[i] += v
	}
	return t
}

// Sub computes t -= o elementwise.
func (t *Tensor) Sub(o *Tensor) *Tensor {
	checkSameLen("Sub", t, o)
	for i, v := range o.data {
		t.data[i] -= v
	}
	return t
}

// Scale multiplies every element by a.
func (t *Tensor) Scale(a float64) *Tensor {
	for i := range t.data {
		t.data[i] *= a
	}
	return t
}

// AddScaled computes t += a*o elementwise, the axpy primitive used by the
// optimizers.
func (t *Tensor) AddScaled(a float64, o *Tensor) *Tensor {
	checkSameLen("AddScaled", t, o)
	for i, v := range o.data {
		t.data[i] += float64(a * v)
	}
	return t
}

// AddScalar adds a to every element.
func (t *Tensor) AddScalar(a float64) *Tensor {
	for i := range t.data {
		t.data[i] += a
	}
	return t
}

// Apply replaces every element x with f(x).
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Std returns the population standard deviation of all elements.
func (t *Tensor) Std() float64 {
	n := len(t.data)
	if n == 0 {
		return 0
	}
	m := t.Mean()
	ss := 0.0
	for _, v := range t.data {
		d := v - m
		ss += float64(d * d)
	}
	return math.Sqrt(ss / float64(n))
}

// Min returns the smallest element. It panics on an empty tensor.
func (t *Tensor) Min() float64 {
	if len(t.data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest element. It panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Dot returns the inner product of t and o viewed as flat vectors.
func (t *Tensor) Dot(o *Tensor) float64 {
	checkSameLen("Dot", t, o)
	s := 0.0
	for i, v := range t.data {
		s += float64(v * o.data[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of the flattened tensor.
func (t *Tensor) Norm2() float64 {
	return math.Sqrt(t.Dot(t))
}

// ArgMax returns the index of the largest element in the flattened tensor.
func (t *Tensor) ArgMax() int {
	if len(t.data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := t.data[0], 0
	for i, v := range t.data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// Clamp limits every element to [lo, hi].
func (t *Tensor) Clamp(lo, hi float64) *Tensor {
	for i, v := range t.data {
		if v < lo {
			t.data[i] = lo
		} else if v > hi {
			t.data[i] = hi
		}
	}
	return t
}

func checkSameLen(op string, a, b *Tensor) {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("tensor: %s length mismatch: %v vs %v", op, a.shape, b.shape))
	}
}

// Package tensor provides a small dense float64 tensor library used by the
// neural-network substrate. It supports the shapes and operations needed to
// train convolutional classifiers on CPU: elementwise arithmetic, matrix
// multiplication, im2col/col2im for convolution, reductions, and seeded
// random initialization.
//
// Tensors are row-major. A Tensor value owns its backing slice unless it was
// produced by View, in which case it aliases the parent's storage.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, row-major float64 array with an explicit shape.
type Tensor struct {
	shape []int
	data  []float64
}

// New allocates a zero-filled tensor with the given shape. A scalar is
// represented by an empty shape. New panics on negative dimensions.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Data returns the backing slice. Mutations are visible to all views.
func (t *Tensor) Data() []float64 { return t.data }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// NDim returns the number of dimensions.
func (t *Tensor) NDim() int { return len(t.shape) }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view of t with a new shape covering the same elements.
// The element count must match. The view shares storage with t.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: t.data}
}

// View returns a tensor aliasing rows [lo, hi) along the first dimension.
func (t *Tensor) View(lo, hi int) *Tensor {
	if t.NDim() == 0 {
		panic("tensor: cannot view a scalar")
	}
	if lo < 0 || hi > t.shape[0] || lo > hi {
		panic(fmt.Sprintf("tensor: view [%d,%d) out of range for first dim %d", lo, hi, t.shape[0]))
	}
	stride := len(t.data) / max(t.shape[0], 1)
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	s[0] = hi - lo
	return &Tensor{shape: s, data: t.data[lo*stride : hi*stride]}
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 {
	return t.data[t.offset(idx)]
}

// Set assigns v to the element at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Release drops the backing storage, keeping the shape. A released tensor
// reports Len() 0 and cannot be read or written until storage is restored;
// codebook-native serving uses this to free float weight copies whose values
// live in a quantized view instead. ShapeLen returns the element count the
// shape implies regardless of whether storage is present.
func (t *Tensor) Release() { t.data = nil }

// ShapeLen returns the element count implied by the shape, which for a
// released tensor differs from Len().
func (t *Tensor) ShapeLen() int {
	n := 1
	for _, d := range t.shape {
		n *= d
	}
	return n
}

// CopyFrom copies o's elements into t. Shapes must match in element count.
func (t *Tensor) CopyFrom(o *Tensor) {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d vs %d", len(t.data), len(o.data)))
	}
	copy(t.data, o.data)
}

// String renders a compact description with a preview of the data.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := len(t.data)
	show := n
	if show > 8 {
		show = 8
	}
	for i := 0; i < show; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if show < n {
		fmt.Fprintf(&b, " ... (%d more)", n-show)
	}
	b.WriteString("]")
	return b.String()
}

// IsFinite reports whether every element is finite (no NaN or Inf).
func (t *Tensor) IsFinite() bool {
	for _, v := range t.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

package tensor

import "fmt"

// Weights is the weight operand of an eval-path matrix multiply, in one of
// two physical layouts:
//
//   - dense: a row-major []float64, aliasing a parameter tensor's storage —
//     the default, byte-identical to multiplying by the tensor itself;
//   - codebook: a lookup table of ≤256 representative values plus one uint8
//     index per element (the layout quantized releases ship in), so the
//     multiply reads 1 byte per weight instead of 8 and never materializes
//     a dequantized tensor.
//
// The codebook kernels produce bit-identical results to running the dense
// kernels over the dequantized values lut[idx[i]], because every kernel
// follows the accumulation-order rule in matmul.go and lut[idx[i]] is the
// exact float64 the dequantized tensor would hold.
type Weights struct {
	dense []float64
	lut   []float64
	idx   []uint8
}

// DenseWeights wraps a row-major float64 slice (aliased, not copied).
func DenseWeights(v []float64) Weights { return Weights{dense: v} }

// CodebookWeights wraps a codebook view: element i has value lut[idx[i]].
// Both slices are aliased, not copied. It panics on an empty or oversized
// lookup table or an out-of-range index — the caller (a model decoder)
// is expected to have validated untrusted inputs already; this is the
// memory-safety backstop that keeps the kernels bounds-check-free.
func CodebookWeights(lut []float64, idx []uint8) Weights {
	if len(lut) == 0 || len(lut) > 256 {
		panic(fmt.Sprintf("tensor: codebook has %d levels (want 1..256)", len(lut)))
	}
	for i, k := range idx {
		if int(k) >= len(lut) {
			panic(fmt.Sprintf("tensor: codebook index %d at element %d out of range for %d levels", k, i, len(lut)))
		}
	}
	return Weights{lut: lut, idx: idx}
}

// IsDense reports whether the view is a plain float64 slice.
func (w Weights) IsDense() bool { return w.idx == nil }

// Len returns the number of weight elements in the view.
func (w Weights) Len() int {
	if w.IsDense() {
		return len(w.dense)
	}
	return len(w.idx)
}

// Bytes returns the resident size of the view's backing storage: 8 bytes
// per dense element, or 1 byte per index plus 8 per lookup-table level.
func (w Weights) Bytes() int {
	if w.IsDense() {
		return 8 * len(w.dense)
	}
	return len(w.idx) + 8*len(w.lut)
}

// At returns element i's value regardless of layout.
func (w Weights) At(i int) float64 {
	if w.IsDense() {
		return w.dense[i]
	}
	return w.lut[w.idx[i]]
}

// MatMulWSlice computes dst = W·b for W (m×k) in view form and b (k×n) —
// the convolution forward shape (W is the kernel matrix, b the im2col patch
// matrix). r holds W's row runs (Runs.ScanRows), found once for every
// product by the same weights. Bit-identical to MatMulSlice over the dense
// values.
func MatMulWSlice(dst []float64, w Weights, r *Runs, b []float64, m, k, n int) {
	if w.Len() != m*k {
		panic(fmt.Sprintf("tensor: MatMulWSlice weight view has %d elements, want %d", w.Len(), m*k))
	}
	checkSlices("MatMulWSlice", dst, b, b, m*n, k*n, k*n)
	checkRuns("MatMulWSlice", r, m, k)
	if w.IsDense() {
		matmulRuns(dst, w.dense, r, b, m, k, n)
		return
	}
	lutMatMul(dst, w.lut, w.idx, r, b, m, k, n)
}

// MatMulTWSlice computes dst = a·Wᵀ for a (m×k) and W (n×k) in view form —
// the dense-layer forward shape (a is the activation batch, W the (out,in)
// weight matrix). Bit-identical to MatMulTSlice over the dense values.
func MatMulTWSlice(dst, a []float64, w Weights, m, k, n int) {
	if w.Len() != n*k {
		panic(fmt.Sprintf("tensor: MatMulTWSlice weight view has %d elements, want %d", w.Len(), n*k))
	}
	if w.IsDense() {
		MatMulTSlice(dst, a, w.dense, m, k, n)
		return
	}
	checkSlices("MatMulTWSlice", dst, a, a, m*n, m*k, m*k)
	lutMatMulT(dst, a, w.lut, w.idx, m, k, n)
}

// lutMatMul computes dst = W·b where W[i][p] = lut[idx[i*k+p]] and r holds
// W's row runs. Each row is dequantized into a stack buffer, a chunk at a
// time, and multiplied from there as matmulRuns multiplies a dense row. A
// run split at a chunk boundary becomes two accum calls over the same
// chain, so the terms and their order are matmulRuns' exactly.
func lutMatMul(dst, lut []float64, idx []uint8, r *Runs, b []float64, m, k, n int) {
	var row [256]float64
	clear(dst)
	for i := 0; i < m; i++ {
		drow := dst[i*n : (i+1)*n]
		irow := idx[i*k : (i+1)*k]
		for c0 := 0; c0 < k; c0 += len(row) {
			c1 := min(c0+len(row), k)
			for p, x := range irow[c0:c1] {
				row[p] = lut[x]
			}
			for s := r.off[i]; s < r.off[i+1]; s += 2 {
				p, q := max(r.span[s], c0), min(r.span[s+1], c1)
				if p < q {
					accum(drow, row[p-c0:], b[p*n:], q-p, 1, n)
				}
			}
		}
	}
}

// lutMatMulT computes dst = a·Wᵀ where W[j][p] = lut[idx[j*k+p]].
// Structure and op order mirror matmulTBlocked exactly.
func lutMatMulT(dst, a, lut []float64, idx []uint8, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			i0 := idx[j*k : (j+1)*k]
			i1 := idx[(j+1)*k : (j+2)*k]
			i2 := idx[(j+2)*k : (j+3)*k]
			i3 := idx[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for p, av := range arow {
				s0 += float64(av * lut[i0[p]])
				s1 += float64(av * lut[i1[p]])
				s2 += float64(av * lut[i2[p]])
				s3 += float64(av * lut[i3[p]])
			}
			drow[j] = s0
			drow[j+1] = s1
			drow[j+2] = s2
			drow[j+3] = s3
		}
		for ; j < n; j++ {
			irow := idx[j*k : (j+1)*k]
			s := 0.0
			for p, av := range arow {
				s += float64(av * lut[irow[p]])
			}
			drow[j] = s
		}
	}
}

package tensor

import "fmt"

// Matrix-multiply kernels come in two families: the *naive reference
// kernels in this file, which define the repo's floating-point accumulation
// order, and the cache-blocked / register-tiled kernels in matmul_blocked.go
// that the public entry points actually dispatch to.
//
// # The accumulation-order rule
//
// Every kernel — naive, blocked, and the codebook (LUT) variants in
// weights.go — must produce bit-identical results, because released models,
// cache keys, and the serving bit-reproducibility guarantee are all derived
// from these numbers. The rule that makes that hold:
//
//   - each output element's value is one serial chain of rounded operations
//     over its k-terms in ascending k order;
//   - every multiply-accumulate is written as an explicit two-step
//     (t := a*b; acc += t) so the intermediate product is rounded to float64
//     before the add — blocking a compiler from contracting one kernel's
//     a*b+acc into a fused multiply-add while leaving another's unfused;
//   - kernels that skip zero a-terms (the a·b and aᵀ·b forms) skip exactly
//     the same terms in every variant. (Skipping a zero term is itself
//     bit-neutral — an accumulator seeded with +0 can never become -0, and
//     adding ±0 to a non-(-0) float is the identity — but a 0·±Inf term
//     would turn into NaN if added instead of skipped, so the skip set must
//     match.)
//
// Blocked kernels may therefore tile over output rows/columns and hold
// accumulators in registers, but must not split a k-chain into partial sums
// that are combined afterwards. TestBlockedKernelsBitIdentical pins this.

// matmulNaive is the ikj-ordered reference kernel for dst = a·b:
// cache-friendly row streaming over b, zero a-terms skipped.
func matmulNaive(dst, a, b []float64, m, k, n int) {
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				t := av * bv
				drow[j] += t
			}
		}
	}
}

// matmulTNaive is the reference kernel for dst = a·bᵀ: one dot product per
// output element, no zero skipping.
func matmulTNaive(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			s := 0.0
			for p, av := range arow {
				t := av * brow[p]
				s += t
			}
			drow[j] = s
		}
	}
}

// tmatmulNaive is the reference kernel for dst = aᵀ·b: k-major streaming
// with zero a-terms skipped.
func tmatmulNaive(dst, a, b []float64, k, m, n int) {
	for i := range dst {
		dst[i] = 0
	}
	for p := 0; p < k; p++ {
		arow := a[p*m : (p+1)*m]
		brow := b[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst[i*n : (i+1)*n]
			for j, bv := range brow {
				t := av * bv
				drow[j] += t
			}
		}
	}
}

// The *Slice entry points below run the blocked kernels over raw row-major
// slices. They serve the parallel layer paths, which shard batches into
// sub-slices of shared storage and cannot afford a header allocation per
// sample. Each validates lengths, so a mis-sliced call fails loudly instead
// of corrupting a neighbouring sample's rows.

func checkSlices(op string, dst, a, b []float64, dl, al, bl int) {
	if len(dst) != dl || len(a) != al || len(b) != bl {
		panic(fmt.Sprintf("tensor: %s buffer sizes dst=%d a=%d b=%d, want %d,%d,%d",
			op, len(dst), len(a), len(b), dl, al, bl))
	}
}

// MatMulSlice computes dst = a·b for a (m×k) and b (k×n), writing the (m×n)
// product over dst's previous contents.
func MatMulSlice(dst, a, b []float64, m, k, n int) {
	checkSlices("MatMulSlice", dst, a, b, m*n, m*k, k*n)
	matmulBlocked(dst, a, b, m, k, n)
}

// MatMulTSlice computes dst = a·bᵀ for a (m×k) and b (n×k), writing the
// (m×n) product over dst's previous contents.
func MatMulTSlice(dst, a, b []float64, m, k, n int) {
	checkSlices("MatMulTSlice", dst, a, b, m*n, m*k, n*k)
	matmulTBlocked(dst, a, b, m, k, n)
}

// TMatMulSlice computes dst = aᵀ·b for a (k×m) and b (k×n), writing the
// (m×n) product over dst's previous contents.
func TMatMulSlice(dst, a, b []float64, k, m, n int) {
	checkSlices("TMatMulSlice", dst, a, b, m*n, k*m, k*n)
	tmatmulBlocked(dst, a, b, k, m, n)
}

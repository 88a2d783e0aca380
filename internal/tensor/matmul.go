package tensor

import "fmt"

// Matrix-multiply kernels come in two families: the *naive reference
// kernels in this file, which define the repo's floating-point accumulation
// order, and the production kernels in matmul_blocked.go and weights.go
// that the public entry points dispatch to.
//
// # The accumulation-order rule
//
// Every kernel — naive, production, and the codebook (LUT) variants in
// weights.go — must produce bit-identical results, because released
// models, cache keys, and the serving bit-reproducibility guarantee are
// all derived from these numbers. The rule that makes that hold:
//
//   - each output element's value is one serial chain of rounded operations
//     over its k-terms in ascending k order, starting from +0;
//   - every product is written float64(x*y) before it is added. The Go spec
//     lets a compiler fuse x*y+z into one multiply-add, "possibly across
//     statements", and arm64 builds do so; only an explicit conversion
//     forces the product to be rounded first. (amd64 builds never fuse.)
//     `make no-fma`, a CI step, cross-builds for arm64 and fails on any
//     fused multiply-add in this package;
//   - the a·b-form kernels (a·b, aᵀ·b, codebook W·b) skip zero a-terms, and
//     skip exactly the same terms in every variant. (Skipping a zero term is
//     itself bit-neutral — an accumulator seeded with +0 can never become
//     -0, and adding ±0 to a non-(-0) float is the identity — but a 0·±Inf
//     term would turn into NaN if added instead of skipped, so the skip set
//     must match.) The production kernels skip by runs: each output row is
//     one accum call per maximal run of non-zero a-terms, and Runs records
//     those runs once for an operand that many products share;
//   - the no-skip a·b (MatMulNoSkipSlice) and the dot form a·bᵀ skip
//     nothing.
//
// accum (accum.go) is the one multiply-then-add primitive under the a·b
// forms. On amd64 with AVX2 it is assembly: SIMD lanes are output columns,
// never k-splits, and each term is VMULPD then VADDPD, which round per
// lane exactly as MULSD then ADDSD do — never a fused VFMADD. Elsewhere,
// and on amd64 without AVX2 (detected once with CPUID and XGETBV), a Go
// loop issues the same operations. IEEE multiplication commutes, so the
// weight gradient's g·col equals the reference's col·g. Kernels may
// therefore tile over output rows and columns and hold accumulators in
// registers, but must not split a k-chain into partial sums that are
// combined afterwards. TestBlockedKernelsBitIdentical and FuzzKernels pin
// this over both accum paths.

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
				drow[j] += float64(av * bv)
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
				s += float64(av * brow[p])
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
				drow[j] += float64(av * bv)
			}
		}
	}
}

// The *Slice entry points below run the production kernels over raw row-major
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
// product over dst's previous contents. Zero a-terms are skipped.
func MatMulSlice(dst, a, b []float64, m, k, n int) {
	checkSlices("MatMulSlice", dst, a, b, m*n, m*k, k*n)
	matmulBlocked(dst, a, b, m, k, n)
}

// MatMulNoSkipSlice computes dst = a·b for a (m×k) and b (k×n) over every
// term, zero or not: each element is the chain MatMulTSlice computes
// against bᵀ. It is the weight-gradient product g·colᵀ of a convolution.
func MatMulNoSkipSlice(dst, a, b []float64, m, k, n int) {
	checkSlices("MatMulNoSkipSlice", dst, a, b, m*n, m*k, k*n)
	matmulNoSkip(dst, a, b, m, k, n)
}

// MatMulTSlice computes dst = a·bᵀ for a (m×k) and b (n×k), writing the
// (m×n) product over dst's previous contents.
func MatMulTSlice(dst, a, b []float64, m, k, n int) {
	checkSlices("MatMulTSlice", dst, a, b, m*n, m*k, n*k)
	matmulTBlocked(dst, a, b, m, k, n)
}

// TMatMulSlice computes dst = aᵀ·b for a (k×m) and b (k×n), writing the
// (m×n) product over dst's previous contents. r holds a's column runs
// (Runs.ScanCols); zero a-terms are skipped.
func TMatMulSlice(dst, a []float64, r *Runs, b []float64, k, m, n int) {
	checkSlices("TMatMulSlice", dst, a, b, m*n, k*m, k*n)
	checkRuns("TMatMulSlice", r, m, k)
	tmatmulBlocked(dst, a, r, b, k, m, n)
}

// checkRuns panics unless r describes m lines of k terms.
func checkRuns(op string, r *Runs, m, k int) {
	if len(r.off) != m+1 || r.k != k {
		panic(fmt.Sprintf("tensor: %s runs describe %d lines of %d terms, want %d of %d", op, len(r.off)-1, r.k, m, k))
	}
}

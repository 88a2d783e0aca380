package tensor

// The production kernels the public *Slice entry points dispatch to; the
// naive kernels in matmul.go remain as the bit-level reference. See
// matmul.go for the accumulation-order rule that keeps the two families
// bit-identical.
//
// The a·b forms are loops over output rows: a row is one accum call per
// maximal run of non-zero a-terms (one call over every term for the no-skip
// form), and accum holds that row's outputs in registers across each run.
// The dot form a·bᵀ, which only the dense layer uses, computes four output
// columns per pass over a row of a, so each a element is loaded once per
// four dots.

// matmulBlocked computes dst = a·b for a (m×k), b (k×n), finding each row's
// zero runs as it goes.
func matmulBlocked(dst, a, b []float64, m, k, n int) {
	clear(dst)
	for i := 0; i < m; i++ {
		accumLine(dst[i*n:(i+1)*n], a[i*k:], b, k, 1, n)
	}
}

// matmulRuns computes dst = a·b for a (m×k), b (k×n), where r holds a's row
// runs.
func matmulRuns(dst, a []float64, r *Runs, b []float64, m, k, n int) {
	clear(dst)
	for i := 0; i < m; i++ {
		r.accumLine(i, dst[i*n:(i+1)*n], a[i*k:], b, 1, n)
	}
}

// tmatmulBlocked computes dst = aᵀ·b for a (k×m), b (k×n): output row i
// takes its terms down column i of a, whose runs r holds.
func tmatmulBlocked(dst, a []float64, r *Runs, b []float64, k, m, n int) {
	clear(dst)
	for i := 0; i < m; i++ {
		r.accumLine(i, dst[i*n:(i+1)*n], a[i:], b, m, n)
	}
}

// matmulNoSkip computes dst = a·b for a (m×k), b (k×n) over every term.
func matmulNoSkip(dst, a, b []float64, m, k, n int) {
	clear(dst)
	for i := 0; i < m; i++ {
		accum(dst[i*n:(i+1)*n], a[i*k:], b, k, 1, n)
	}
}

// matmulTBlocked computes dst = a·bᵀ for a (m×k), b (n×k): four dot
// products share each pass over a row of a.
func matmulTBlocked(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for p, av := range arow {
				s0 += float64(av * b0[p])
				s1 += float64(av * b1[p])
				s2 += float64(av * b2[p])
				s3 += float64(av * b3[p])
			}
			drow[j] = s0
			drow[j+1] = s1
			drow[j+2] = s2
			drow[j+3] = s3
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			s := 0.0
			for p, av := range arow {
				s += float64(av * brow[p])
			}
			drow[j] = s
		}
	}
}

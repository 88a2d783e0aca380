package tensor

import "fmt"

// useAVX2 selects the assembly accum kernel. It is set once from CPUID
// where the build has one (haveAVX2) and flipped only by tests, which run
// every kernel over both paths.
var useAVX2 = haveAVX2

// accum is the one multiply-then-add primitive under every a·b-form
// product. For each j < len(d) it computes
//
//	d[j] = (…((d[j] + a[0]·b[j]) + a[lda]·b[ldb+j]) + …) + a[(k-1)·lda]·b[(k-1)·ldb+j]
//
// with every product rounded before its add, over the k terms in order.
// The assembly path holds d in vector registers across all k terms, one
// output column per lane; the Go path below issues the same rounded
// operations per column.
func accum(d, a, b []float64, k, lda, ldb int) {
	n := len(d)
	if n == 0 || k <= 0 {
		return
	}
	if (k-1)*ldb+n > len(b) || (k-1)*lda >= len(a) {
		panic(fmt.Sprintf("tensor: accum of %d terms over %d columns reads past a (%d, stride %d) or b (%d, stride %d)",
			k, n, len(a), lda, len(b), ldb))
	}
	if useAVX2 {
		accumAVX2(&d[0], n, &a[0], lda, &b[0], ldb, k)
		return
	}
	accumGo(d, a, b, k, lda, ldb)
}

// accumGo is accum's portable path: four terms per pass over d, so each
// d[j] is loaded and stored once per quad.
func accumGo(d, a, b []float64, k, lda, ldb int) {
	n := len(d)
	p := 0
	for ; p+4 <= k; p += 4 {
		a0, a1, a2, a3 := a[p*lda], a[(p+1)*lda], a[(p+2)*lda], a[(p+3)*lda]
		b0 := b[p*ldb:][:n]
		b1 := b[(p+1)*ldb:][:n]
		b2 := b[(p+2)*ldb:][:n]
		b3 := b[(p+3)*ldb:][:n]
		for j := range d {
			v := d[j]
			v += float64(a0 * b0[j])
			v += float64(a1 * b1[j])
			v += float64(a2 * b2[j])
			v += float64(a3 * b3[j])
			d[j] = v
		}
	}
	for ; p < k; p++ {
		av := a[p*lda]
		for j, bv := range b[p*ldb:][:n] {
			d[j] += float64(av * bv)
		}
	}
}

// accumLine adds the k terms of one a-line (a[0], a[lda], …) into d, one
// accum call per maximal run of non-zero terms, so zero terms are skipped
// exactly as the naive kernels skip them.
func accumLine(d, a, b []float64, k, lda, ldb int) {
	for p := 0; p < k; {
		if a[p*lda] == 0 {
			p++
			continue
		}
		q := p + 1
		for q < k && a[q*lda] != 0 {
			q++
		}
		accum(d, a[p*lda:], b[p*ldb:], q-p, lda, ldb)
		p = q
	}
}

// Runs records an operand's zero-skip structure once, for products that
// reuse the operand many times: a convolution layer multiplies every
// sample of a batch by the same weights. For each line (the a-terms of one
// output row), it holds the maximal runs of non-zero terms as half-open
// [lo, hi) term ranges in ascending order. The zero value is empty;
// scanning reuses its storage.
type Runs struct {
	k    int   // terms per line
	off  []int // line i's runs are span[off[i]:off[i+1]], as lo, hi pairs
	span []int
}

// scan records the runs of m lines of k terms each, where nonzero reports
// whether term p of line i is non-zero.
func (r *Runs) scan(m, k int, nonzero func(i, p int) bool) {
	r.k = k
	r.off = append(r.off[:0], 0)
	r.span = r.span[:0]
	for i := 0; i < m; i++ {
		for p := 0; p < k; {
			if !nonzero(i, p) {
				p++
				continue
			}
			q := p + 1
			for q < k && nonzero(i, q) {
				q++
			}
			r.span = append(r.span, p, q)
			p = q
		}
		r.off = append(r.off, len(r.span))
	}
}

// ScanRows records the runs of each row of an m×k matrix in view form:
// the a-operand of MatMulWSlice.
func (r *Runs) ScanRows(w Weights, m, k int) {
	if w.Len() != m*k {
		panic(fmt.Sprintf("tensor: ScanRows view has %d elements, want %d", w.Len(), m*k))
	}
	r.scan(m, k, func(i, p int) bool { return w.At(i*k+p) != 0 })
}

// ScanCols records the runs of each column of a row-major k×m matrix: the
// a-operand of TMatMulSlice.
func (r *Runs) ScanCols(a []float64, k, m int) {
	if len(a) != k*m {
		panic(fmt.Sprintf("tensor: ScanCols matrix has %d elements, want %d", len(a), k*m))
	}
	r.scan(m, k, func(i, p int) bool { return a[p*m+i] != 0 })
}

// accumLine is the package-level accumLine over line i's recorded runs.
func (r *Runs) accumLine(i int, d, a, b []float64, lda, ldb int) {
	for s := r.off[i]; s < r.off[i+1]; s += 2 {
		p, q := r.span[s], r.span[s+1]
		accum(d, a[p*lda:], b[p*ldb:], q-p, lda, ldb)
	}
}

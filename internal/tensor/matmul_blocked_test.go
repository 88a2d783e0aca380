package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// oddShapes exercises every tail path of the kernels: remainders of the
// 16-, 4- and 1-column blocks and of the Go path's four-term quads,
// degenerate 1-wide products, and sizes straddling each block boundary.
var oddShapes = [][3]int{
	{1, 1, 1}, {1, 4, 1}, {2, 3, 5}, {3, 7, 2}, {5, 5, 5},
	{4, 4, 4}, {7, 8, 13}, {8, 16, 8}, {13, 17, 3}, {16, 15, 17},
	{17, 1, 9}, {3, 13, 16}, {2, 6, 37}, {3, 9, 33},
}

// forEachPath runs fn once per accum path this machine has: the Go loop,
// and the AVX2 assembly where the CPU supports it.
func forEachPath(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	defer func(old bool) { useAVX2 = old }(useAVX2)
	for _, avx2 := range []bool{false, true} {
		name := "go"
		if avx2 {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			if avx2 && !haveAVX2 {
				t.Skip("no AVX2 on this CPU")
			}
			useAVX2 = avx2
			fn(t)
		})
	}
}

// fillCases generates operand fillings that stress the bit-identity
// guarantee: dense gaussians, zero-heavy slices (exercising the skip-set
// rule), and values spanning wildly different magnitudes (where any
// accumulation-order change shows up in the low bits).
func fillCases(rng *rand.Rand, dst []float64, mode int) {
	switch mode {
	case 0:
		for i := range dst {
			dst[i] = rng.NormFloat64()
		}
	case 1:
		for i := range dst {
			if rng.Intn(3) == 0 {
				dst[i] = 0
			} else {
				dst[i] = rng.NormFloat64()
			}
		}
	case 2:
		for i := range dst {
			dst[i] = rng.NormFloat64() * math.Pow(2, float64(rng.Intn(80)-40))
		}
	}
}

// bitEqual fails unless got and want hold the same bits element by
// element; any NaN matches any NaN.
func bitEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d = %x (%v), want %x (%v)",
				label, i, math.Float64bits(g), g, math.Float64bits(w), w)
		}
	}
}

// checkAllForms runs every a·b-form and dot-form kernel over one operand
// set and compares each with its naive reference: a is m×k, b k×n, bt n×k
// and at k×m.
func checkAllForms(t *testing.T, a, b, bt, at []float64, m, k, n int) {
	t.Helper()
	want := make([]float64, m*n)
	got := make([]float64, m*n)
	var r Runs

	matmulNaive(want, a, b, m, k, n)
	matmulBlocked(got, a, b, m, k, n)
	bitEqual(t, "matmul", got, want)
	r.ScanRows(DenseWeights(a), m, k)
	MatMulWSlice(got, DenseWeights(a), &r, b, m, k, n)
	bitEqual(t, "matmul with runs", got, want)

	matmulTNaive(want, a, bt, m, k, n)
	matmulTBlocked(got, a, bt, m, k, n)
	bitEqual(t, "matmulT", got, want)
	matmulNoSkip(got, a, transposeOf(bt, n, k), m, k, n)
	bitEqual(t, "no-skip matmul", got, want)

	tmatmulNaive(want, at, b, k, m, n)
	r.ScanCols(at, k, m)
	tmatmulBlocked(got, at, &r, b, k, m, n)
	bitEqual(t, "tmatmul", got, want)
}

// transposeOf returns the (n×m) transpose of the row-major (m×n) matrix a.
func transposeOf(a []float64, m, n int) []float64 {
	out := make([]float64, len(a))
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out[j*m+i] = a[i*n+j]
		}
	}
	return out
}

// TestBlockedKernelsBitIdentical pins the accumulation-order rule from
// matmul.go: the kernels the public API dispatches to must be
// bit-identical to the naive reference loops, for every product form,
// across odd shapes and adversarial fillings, on both accum paths.
func TestBlockedKernelsBitIdentical(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for _, sh := range oddShapes {
			m, k, n := sh[0], sh[1], sh[2]
			for mode := 0; mode < 3; mode++ {
				a := make([]float64, m*k)
				b := make([]float64, k*n)
				bt := make([]float64, n*k)
				at := make([]float64, k*m)
				for _, op := range [][]float64{a, b, bt, at} {
					fillCases(rng, op, mode)
				}
				checkAllForms(t, a, b, bt, at, m, k, n)
			}
		}
	})
}

// TestBlockedZeroSkipInfinity pins the hazard the skip-set rule exists for:
// a zero a-term against an ±Inf b-term must be skipped (not producing NaN)
// in the production kernels exactly as in the naive ones, while the
// no-skip form must produce the NaN its dot-form reference does.
func TestBlockedZeroSkipInfinity(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		m, k, n := 3, 7, 21
		a := make([]float64, m*k)
		b := make([]float64, k*n)
		rng := rand.New(rand.NewSource(42))
		for i := range a {
			if i%3 == 0 {
				a[i] = 0
			} else {
				a[i] = rng.NormFloat64()
			}
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		// Place ±Inf in b rows that zero a-terms hit, in a 16-column
		// block, a 4-column block and the scalar tail.
		b[0*n+2] = math.Inf(1)
		b[3*n+18] = math.Inf(-1)
		b[6*n+20] = math.Inf(1)

		at := make([]float64, k*m)
		copy(at, a[:k*m])
		checkAllForms(t, a, b, transposeOf(b, k, n), at, m, k, n)
	})
}

// quantize rounds a dense slice onto a small codebook, returning the lut,
// indices, and the dequantized values lut[idx[i]] the LUT kernels must
// reproduce bit-for-bit.
func quantizeForTest(rng *rand.Rand, vals []float64, levels int) (lut []float64, idx []uint8, deq []float64) {
	lut = make([]float64, levels)
	for i := range lut {
		lut[i] = rng.NormFloat64()
	}
	lut[0] = 0 // ensure the zero-skip path is exercised
	idx = make([]uint8, len(vals))
	deq = make([]float64, len(vals))
	for i := range vals {
		idx[i] = uint8(rng.Intn(levels))
		deq[i] = lut[idx[i]]
	}
	return lut, idx, deq
}

// TestLUTKernelsBitIdentical pins the codebook kernels to the naive loops
// over the dequantized weights — the invariant that makes codebook-native
// serving score-identical to the dequantized forward pass. The last shape
// is wider than lutMatMul's dequantization buffer, so runs split at its
// chunk boundary.
func TestLUTKernelsBitIdentical(t *testing.T) {
	shapes := append(append([][3]int(nil), oddShapes...), [3]int{3, 300, 5})
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			for _, levels := range []int{2, 8, 256} {
				// Conv form: dst = W·b with W quantized.
				wlut, widx, wdeq := quantizeForTest(rng, make([]float64, m*k), levels)
				b := make([]float64, k*n)
				fillCases(rng, b, 0)
				want := make([]float64, m*n)
				got := make([]float64, m*n)
				matmulNaive(want, wdeq, b, m, k, n)
				w := CodebookWeights(wlut, widx)
				var r Runs
				r.ScanRows(w, m, k)
				MatMulWSlice(got, w, &r, b, m, k, n)
				bitEqual(t, "lutMatMul", got, want)

				// Dense form: dst = a·Wᵀ with W (n×k) quantized.
				tlut, tidx, tdeq := quantizeForTest(rng, make([]float64, n*k), levels)
				a := make([]float64, m*k)
				fillCases(rng, a, 2)
				matmulTNaive(want, a, tdeq, m, k, n)
				MatMulTWSlice(got, a, CodebookWeights(tlut, tidx), m, k, n)
				bitEqual(t, "lutMatMulT", got, want)
			}
		}
	})
}

// TestDenseWeightsDispatchMatchesSlice pins the dense view path to the plain
// slice entry points: an unbound parameter evaluates exactly as its floats.
func TestDenseWeightsDispatchMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m, k, n := 5, 13, 7
	w := make([]float64, m*k)
	b := make([]float64, k*n)
	fillCases(rng, w, 0)
	fillCases(rng, b, 0)
	want := make([]float64, m*n)
	got := make([]float64, m*n)
	MatMulSlice(want, w, b, m, k, n)
	var r Runs
	r.ScanRows(DenseWeights(w), m, k)
	MatMulWSlice(got, DenseWeights(w), &r, b, m, k, n)
	bitEqual(t, "dense W dispatch", got, want)

	wt := make([]float64, n*k)
	a := make([]float64, m*k)
	fillCases(rng, wt, 0)
	fillCases(rng, a, 0)
	MatMulTSlice(want, a, wt, m, k, n)
	MatMulTWSlice(got, a, DenseWeights(wt), m, k, n)
	bitEqual(t, "dense Wᵀ dispatch", got, want)
}

func TestWeightsAccessors(t *testing.T) {
	d := DenseWeights([]float64{1, 2, 3})
	if !d.IsDense() || d.Len() != 3 || d.Bytes() != 24 || d.At(2) != 3 {
		t.Fatalf("dense view accessors wrong: len=%d bytes=%d", d.Len(), d.Bytes())
	}
	c := CodebookWeights([]float64{0, 0.5}, []uint8{1, 0, 1, 1})
	if c.IsDense() || c.Len() != 4 || c.Bytes() != 4+16 || c.At(0) != 0.5 {
		t.Fatalf("codebook view accessors wrong: len=%d bytes=%d", c.Len(), c.Bytes())
	}
	out := make([]float64, c.Len())
	for i := range out {
		out[i] = c.At(i)
	}
	wantEq(t, out, []float64{0.5, 0, 0.5, 0.5})
}

func TestCodebookWeightsValidation(t *testing.T) {
	t.Run("empty lut", func(t *testing.T) {
		defer expectPanic(t, "empty lut")
		CodebookWeights(nil, []uint8{0})
	})
	t.Run("index out of range", func(t *testing.T) {
		defer expectPanic(t, "index range")
		CodebookWeights([]float64{1, 2}, []uint8{0, 2})
	})
	t.Run("view length mismatch", func(t *testing.T) {
		defer expectPanic(t, "length mismatch")
		var r Runs
		MatMulWSlice(make([]float64, 4), CodebookWeights([]float64{1}, []uint8{0, 0, 0}), &r, make([]float64, 4), 2, 2, 2)
	})
}

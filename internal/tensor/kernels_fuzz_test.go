package tensor

import (
	"math"
	"testing"
)

// fuzzValue decodes one operand value from a byte: its low three bits pick
// a class (±0, subnormal, ±Inf, huge, normal), its high bit the sign, and
// the rest a magnitude within the class.
func fuzzValue(c byte) float64 {
	sign := 1.0
	if c&0x80 != 0 {
		sign = -1
	}
	mag := float64(c >> 3 & 15)
	switch c & 7 {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign * math.SmallestNonzeroFloat64 * (1 + mag)
	case 2:
		return math.Inf(int(sign))
	case 3:
		return sign * math.MaxFloat64 / (1 + mag)
	default:
		return sign * (1 + float64(c&7)/8) * math.Ldexp(1, int(mag)-8)
	}
}

// fuzzOperands decodes m, k and n and the operands of every product form
// from data: a (m×k), b (k×n), bt (n×k), at (k×m), and a codebook (lut,
// idx) for an m×k weight matrix. Values cycle through data's tail.
func fuzzOperands(data []byte) (m, k, n int, a, b, bt, at, lut []float64, idx []uint8, ok bool) {
	if len(data) < 5 {
		return
	}
	m = 1 + int(data[0])%6
	k = 1 + int(data[1])%40
	if data[1] >= 240 {
		k = 250 + int(data[1]) // past lutMatMul's 256-term buffer
	}
	n = 1 + int(data[2])%40
	levels := 1 + int(data[3])%16
	vals := data[4:]
	next := 0
	fill := func(size int) []float64 {
		s := make([]float64, size)
		for i := range s {
			s[i] = fuzzValue(vals[next%len(vals)])
			next++
		}
		return s
	}
	a, b, bt, at, lut = fill(m*k), fill(k*n), fill(n*k), fill(k*m), fill(levels)
	idx = make([]uint8, m*k)
	for i := range idx {
		idx[i] = uint8(int(vals[next%len(vals)]) % levels)
		next++
	}
	return m, k, n, a, b, bt, at, lut, idx, true
}

// FuzzKernels checks that the AVX2 path, the Go path and the naive
// reference agree bit for bit (any NaN matching any NaN) on a·b, aᵀ·b, the
// no-skip a·b and the codebook W·b, over operands drawn from every value
// class and shapes that cross the 16-, 4- and 1-column blocks.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{3, 8, 21, 4, 0, 8, 16, 2, 130, 3, 9, 1, 5})
	f.Add([]byte{1, 250, 37, 15, 7, 15, 23, 31, 39, 0, 128})
	f.Add([]byte{5, 3, 16, 1, 12, 20, 28, 36, 44, 52, 60})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, k, n, a, b, bt, at, lut, idx, ok := fuzzOperands(data)
		if !ok {
			return
		}
		deq := make([]float64, m*k)
		for i, x := range idx {
			deq[i] = lut[x]
		}
		w := CodebookWeights(lut, idx)
		want := make([]float64, m*n)
		got := make([]float64, m*n)
		var r Runs
		defer func(old bool) { useAVX2 = old }(useAVX2)
		for _, avx2 := range []bool{false, haveAVX2} {
			useAVX2 = avx2
			checkAllForms(t, a, b, bt, at, m, k, n)

			matmulNaive(want, deq, b, m, k, n)
			r.ScanRows(w, m, k)
			MatMulWSlice(got, w, &r, b, m, k, n)
			bitEqual(t, "codebook matmul", got, want)
		}
	})
}

package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Len() != 6 {
		t.Fatalf("Len = %d, want 6", x.Len())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestNewScalar(t *testing.T) {
	s := New()
	if s.Len() != 1 {
		t.Fatalf("scalar Len = %d, want 1", s.Len())
	}
	if s.NDim() != 0 {
		t.Fatalf("scalar NDim = %d, want 0", s.NDim())
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer expectPanic(t, "negative dim")
	New(2, -1)
}

func TestFromSlice(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	x := FromSlice(d, 2, 3)
	if x.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", x.At(1, 2))
	}
	x.Set(9, 0, 1)
	if d[1] != 9 {
		t.Fatal("FromSlice must alias the input slice")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer expectPanic(t, "length mismatch")
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7.5, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Row-major offset check: (1,2,3) -> 1*12 + 2*4 + 3 = 23.
	if x.Data()[23] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer expectPanic(t, "out of range")
	New(2, 2).At(2, 0)
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3}, 3)
	y := x.Clone()
	y.Set(10, 0)
	if x.At(0) != 1 {
		t.Fatal("Clone must not alias original")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Reshape(4)
	y.Set(100, 2)
	if x.At(1, 0) != 100 {
		t.Fatal("Reshape must alias storage")
	}
}

func TestReshapeBadCountPanics(t *testing.T) {
	defer expectPanic(t, "bad reshape")
	New(2, 2).Reshape(3)
}

func TestView(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	v := x.View(1, 3)
	if v.Dim(0) != 2 || v.Dim(1) != 2 {
		t.Fatalf("view shape = %v, want [2 2]", v.Shape())
	}
	if v.At(0, 0) != 3 {
		t.Fatalf("view At(0,0) = %v, want 3", v.At(0, 0))
	}
	v.Set(42, 0, 1)
	if x.At(1, 1) != 42 {
		t.Fatal("View must alias parent storage")
	}
}

func TestViewOutOfRangePanics(t *testing.T) {
	defer expectPanic(t, "view range")
	New(3, 2).View(2, 4)
}

func TestAddSubMulScale(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3}, 3)
	y := FromSlice([]float64{4, 5, 6}, 3)
	x.Add(y)
	wantEq(t, x.Data(), []float64{5, 7, 9})
	x.Sub(y)
	wantEq(t, x.Data(), []float64{1, 2, 3})
	x.Scale(0.5)
	wantEq(t, x.Data(), []float64{0.5, 1, 1.5})
	x.AddScaled(2, y)
	wantEq(t, x.Data(), []float64{8.5, 11, 13.5})
	x.AddScalar(-10)
	wantEq(t, x.Data(), []float64{-1.5, 1, 3.5})
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 4)
	if x.Sum() != 10 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Mean() != 2.5 {
		t.Fatalf("Mean = %v", x.Mean())
	}
	if x.Min() != 1 || x.Max() != 4 {
		t.Fatalf("Min/Max = %v/%v", x.Min(), x.Max())
	}
	if got := x.Std(); math.Abs(got-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("Std = %v, want sqrt(1.25)", got)
	}
	if x.ArgMax() != 3 {
		t.Fatalf("ArgMax = %d", x.ArgMax())
	}
}

func TestDotNorm(t *testing.T) {
	x := FromSlice([]float64{3, 4}, 2)
	if x.Dot(x) != 25 {
		t.Fatalf("Dot = %v", x.Dot(x))
	}
	if x.Norm2() != 5 {
		t.Fatalf("Norm2 = %v", x.Norm2())
	}
}

func TestClamp(t *testing.T) {
	x := FromSlice([]float64{-5, 0.5, 5}, 3)
	x.Clamp(0, 1)
	wantEq(t, x.Data(), []float64{0, 0.5, 1})
}

func TestApply(t *testing.T) {
	x := FromSlice([]float64{1, 4, 9}, 3)
	x.Apply(math.Sqrt)
	wantEq(t, x.Data(), []float64{1, 2, 3})
}

func TestIsFinite(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	if !x.IsFinite() {
		t.Fatal("finite tensor reported non-finite")
	}
	x.Set(math.NaN(), 0)
	if x.IsFinite() {
		t.Fatal("NaN tensor reported finite")
	}
	x.Set(math.Inf(1), 0)
	if x.IsFinite() {
		t.Fatal("Inf tensor reported finite")
	}
}

// mm returns the (m×n) product a·b through MatMulSlice.
func mm(a, b []float64, m, k, n int) []float64 {
	dst := make([]float64, m*n)
	MatMulSlice(dst, a, b, m, k, n)
	return dst
}

// transpose returns the (n×m) transpose of the row-major (m×n) matrix a.
func transpose(a []float64, m, n int) []float64 {
	out := make([]float64, len(a))
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out[j*m+i] = a[i*n+j]
		}
	}
	return out
}

func TestMatMulSmall(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6}
	b := []float64{7, 8, 9, 10, 11, 12}
	wantEq(t, mm(a, b, 2, 3, 2), []float64{58, 64, 139, 154})
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 4).RandN(rng, 0, 1)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	wantClose(t, mm(a.Data(), id.Data(), 4, 4, 4), a.Data(), 1e-12)
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "matmul mismatch")
	// A 2×3 right operand where the shape calls for 3×3.
	MatMulSlice(make([]float64, 6), make([]float64, 6), make([]float64, 6), 2, 3, 3)
}

func TestMatMulTAndTMatMulAgreeWithTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(3, 5).RandN(rng, 0, 1).Data()
	b := New(4, 5).RandN(rng, 0, 1).Data()
	got := make([]float64, 3*4)
	MatMulTSlice(got, a, b, 3, 5, 4)
	wantClose(t, got, mm(a, transpose(b, 4, 5), 3, 5, 4), 1e-12)

	c := New(5, 3).RandN(rng, 0, 1).Data()
	d := New(5, 4).RandN(rng, 0, 1).Data()
	got2 := make([]float64, 3*4)
	var r Runs
	r.ScanCols(c, 5, 3)
	TMatMulSlice(got2, c, &r, d, 5, 3, 4)
	wantClose(t, got2, mm(transpose(c, 5, 3), d, 3, 5, 4), 1e-12)
}

// Property: matmul distributes over addition: A(B+C) = AB + AC.
func TestMatMulDistributiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(3, 4).RandN(rng, 0, 1).Data()
		b := New(4, 2).RandN(rng, 0, 1)
		c := New(4, 2).RandN(rng, 0, 1)
		left := mm(a, b.Clone().Add(c).Data(), 3, 4, 2)
		ab, ac := mm(a, b.Data(), 3, 4, 2), mm(a, c.Data(), 3, 4, 2)
		for i := range left {
			if math.Abs(left[i]-(ab[i]+ac[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConvDimsDerivation(t *testing.T) {
	d := NewConvDims(3, 8, 8, 16, 3, 3, 1, 1)
	if d.OutH != 8 || d.OutW != 8 {
		t.Fatalf("same-pad conv out = %dx%d, want 8x8", d.OutH, d.OutW)
	}
	if d.ColRows != 27 || d.Cols != 64 {
		t.Fatalf("im2col dims = %dx%d, want 27x64", d.ColRows, d.Cols)
	}
	d2 := NewConvDims(1, 8, 8, 4, 2, 2, 2, 0)
	if d2.OutH != 4 || d2.OutW != 4 {
		t.Fatalf("strided conv out = %dx%d, want 4x4", d2.OutH, d2.OutW)
	}
}

func TestConvDimsEmptyOutputPanics(t *testing.T) {
	defer expectPanic(t, "empty output")
	NewConvDims(1, 2, 2, 1, 5, 5, 1, 0)
}

// Im2Col on a 1-channel 3x3 input with a 2x2 kernel, stride 1, no padding:
// verify each column is the correct receptive field.
func TestIm2ColExact(t *testing.T) {
	d := NewConvDims(1, 3, 3, 1, 2, 2, 1, 0)
	src := []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	dst := make([]float64, d.ColRows*d.Cols)
	Im2Col(d, src, dst)
	// Rows are kernel positions (ky,kx); columns are output pixels.
	want := []float64{
		1, 2, 4, 5, // k(0,0)
		2, 3, 5, 6, // k(0,1)
		4, 5, 7, 8, // k(1,0)
		5, 6, 8, 9, // k(1,1)
	}
	wantEq(t, dst, want)
}

func TestIm2ColPaddingZeros(t *testing.T) {
	d := NewConvDims(1, 2, 2, 1, 3, 3, 1, 1)
	src := []float64{1, 2, 3, 4}
	dst := make([]float64, d.ColRows*d.Cols)
	Im2Col(d, src, dst)
	// Output is 2x2. Column 0 = receptive field centered at (0,0): the
	// k(0,0) tap reads (-1,-1) which is padding → 0.
	if dst[0] != 0 {
		t.Fatalf("padded tap = %v, want 0", dst[0])
	}
	// k(1,1) tap of column 0 reads input (0,0) = 1.
	row := 1*3 + 1
	if dst[row*d.Cols+0] != 1 {
		t.Fatalf("center tap = %v, want 1", dst[row*d.Cols+0])
	}
}

// Property: Col2Im is the adjoint of Im2Col: <Im2Col(x), y> == <x, Col2Im(y)>.
// This is exactly the identity backprop relies on.
func TestCol2ImAdjointProperty(t *testing.T) {
	geoms := []ConvDims{
		NewConvDims(2, 5, 5, 3, 3, 3, 1, 1),
		NewConvDims(1, 6, 6, 2, 2, 2, 2, 0),
		NewConvDims(3, 4, 4, 4, 3, 3, 2, 1),
	}
	rng := rand.New(rand.NewSource(7))
	for gi, d := range geoms {
		x := make([]float64, d.InElems)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, d.ColRows*d.Cols)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		cx := make([]float64, d.ColRows*d.Cols)
		Im2Col(d, x, cx)
		xg := make([]float64, d.InElems)
		Col2Im(d, y, xg)
		var lhs, rhs float64
		for i := range cx {
			lhs += cx[i] * y[i]
		}
		for i := range x {
			rhs += x[i] * xg[i]
		}
		if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
			t.Fatalf("geometry %d: adjoint identity violated: %v vs %v", gi, lhs, rhs)
		}
	}
}

func TestRandNMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := New(20000).RandN(rng, 3, 2)
	if m := x.Mean(); math.Abs(m-3) > 0.1 {
		t.Fatalf("RandN mean = %v, want ≈3", m)
	}
	if s := x.Std(); math.Abs(s-2) > 0.1 {
		t.Fatalf("RandN std = %v, want ≈2", s)
	}
}

func TestRandURange(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := New(1000).RandU(rng, -2, 5)
	if x.Min() < -2 || x.Max() >= 5 {
		t.Fatalf("RandU out of range: [%v, %v]", x.Min(), x.Max())
	}
}

func TestKaimingNormalScale(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := New(50000).KaimingNormal(rng, 50)
	want := math.Sqrt(2.0 / 50.0)
	if s := x.Std(); math.Abs(s-want) > 0.01 {
		t.Fatalf("Kaiming std = %v, want ≈%v", s, want)
	}
}

func TestStringPreview(t *testing.T) {
	x := New(20)
	s := x.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func wantEq(t *testing.T, got, want []float64) {
	t.Helper()
	wantClose(t, got, want, 0)
}

func wantClose(t *testing.T, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("element %d = %v, want %v (tol %v)", i, got[i], want[i], tol)
		}
	}
}

func expectPanic(t *testing.T, label string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("%s: expected panic", label)
	}
}

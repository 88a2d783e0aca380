package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewHistogramCounts(t *testing.T) {
	h := NewHistogram([]float64{0, 1, 2, 3}, 4, 0, 4)
	for i, f := range h.Freq {
		if f != 0.25 {
			t.Fatalf("bucket %d = %v, want 0.25", i, f)
		}
	}
	if h.N != 4 {
		t.Fatalf("N = %d", h.N)
	}
}

func TestHistogramClampsOutliers(t *testing.T) {
	h := NewHistogram([]float64{-100, 100}, 2, 0, 1)
	if h.Freq[0] != 0.5 || h.Freq[1] != 0.5 {
		t.Fatalf("freq = %v", h.Freq)
	}
}

func TestHistogramEmptyInput(t *testing.T) {
	h := NewHistogram(nil, 3, 0, 1)
	for _, f := range h.Freq {
		if f != 0 {
			t.Fatal("empty histogram must be all zeros")
		}
	}
}

func TestHistogramBadArgsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(nil, 0, 0, 1) },
		func() { NewHistogram(nil, 3, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestTotalVariation(t *testing.T) {
	p := []float64{1, 0}
	q := []float64{0, 1}
	if tv := TotalVariation(p, q); tv != 1 {
		t.Fatalf("TV = %v, want 1", tv)
	}
	if tv := TotalVariation(p, p); tv != 0 {
		t.Fatalf("TV(p,p) = %v", tv)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Median != 3 { // upper median for even n
		t.Fatalf("median = %v", s.Median)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Fatalf("empty summary N = %d", empty.N)
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if r := Pearson(x, y); math.Abs(r-1) > 1e-12 {
		t.Fatalf("Pearson = %v, want 1", r)
	}
	neg := []float64{8, 6, 4, 2}
	if r := Pearson(x, neg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("Pearson = %v, want -1", r)
	}
}

func TestPearsonConstantInput(t *testing.T) {
	if r := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Fatalf("Pearson with constant x = %v, want 0", r)
	}
}

// Property: Pearson is invariant to positive affine transforms of either
// argument.
func TestPearsonAffineInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 40)
		y := make([]float64, 40)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = x[i]*0.5 + rng.NormFloat64()
		}
		r1 := Pearson(x, y)
		x2 := make([]float64, len(x))
		for i := range x {
			x2[i] = 3*x[i] + 7
		}
		r2 := Pearson(x2, y)
		return math.Abs(r1-r2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 25)
		y := make([]float64, 25)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		r := Pearson(x, y)
		return r >= -1-1e-12 && r <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	for _, f := range []func(){
		func() { TotalVariation([]float64{1}, []float64{1, 2}) },
		func() { Pearson([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

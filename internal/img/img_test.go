package img

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func gradientImage(c, h, w int) *Image {
	im := New(c, h, w)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				im.Set(float64((y*w+x)*255)/float64(h*w-1), ch, y, x)
			}
		}
	}
	return im
}

func noiseImage(c, h, w int, seed int64) *Image {
	rng := rand.New(rand.NewSource(seed))
	im := New(c, h, w)
	for i := range im.Pix {
		im.Pix[i] = rng.Float64() * 255
	}
	return im
}

func TestNewAndAccessors(t *testing.T) {
	im := New(1, 4, 5)
	if im.NumPix() != 20 {
		t.Fatalf("NumPix = %d", im.NumPix())
	}
	im.Set(100, 0, 2, 3)
	if im.At(0, 2, 3) != 100 {
		t.Fatal("At/Set round trip failed")
	}
	if im.Pix[2*5+3] != 100 {
		t.Fatal("channel-major layout violated")
	}
}

func TestNewBadChannelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 4, 4)
}

func TestFromPixelsLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromPixels(make([]float64, 5), 1, 2, 2)
}

func TestCloneIndependent(t *testing.T) {
	a := noiseImage(1, 3, 3, 1)
	b := a.Clone()
	b.Pix[0] = -999
	if a.Pix[0] == -999 {
		t.Fatal("Clone aliases original")
	}
}

func TestClamp(t *testing.T) {
	im := FromPixels([]float64{-10, 0, 128, 300}, 1, 2, 2)
	im.Clamp()
	want := []float64{0, 0, 128, 255}
	for i, v := range want {
		if im.Pix[i] != v {
			t.Fatalf("clamped[%d] = %v, want %v", i, im.Pix[i], v)
		}
	}
}

func TestMeanStd(t *testing.T) {
	im := FromPixels([]float64{0, 0, 200, 200}, 1, 2, 2)
	if im.Mean() != 100 {
		t.Fatalf("Mean = %v", im.Mean())
	}
	if im.Std() != 100 {
		t.Fatalf("Std = %v", im.Std())
	}
}

func TestGrayLuma(t *testing.T) {
	im := New(3, 1, 1)
	im.Set(255, 0, 0, 0) // pure red
	g := im.Gray()
	if math.Abs(g.Pix[0]-0.299*255) > 1e-9 {
		t.Fatalf("gray of red = %v, want %v", g.Pix[0], 0.299*255)
	}
	if g.C != 1 {
		t.Fatal("gray must be single-channel")
	}
}

func TestGrayOfGrayClones(t *testing.T) {
	a := noiseImage(1, 2, 2, 2)
	g := a.Gray()
	g.Pix[0] = -1
	if a.Pix[0] == -1 {
		t.Fatal("Gray of gray must copy")
	}
}

func TestNormalized(t *testing.T) {
	im := FromPixels([]float64{0, 255, 127.5, 51}, 1, 2, 2)
	n := im.Normalized()
	want := []float64{0, 1, 0.5, 0.2}
	for i, v := range want {
		if math.Abs(n[i]-v) > 1e-12 {
			t.Fatalf("normalized[%d] = %v, want %v", i, n[i], v)
		}
	}
}

func TestHistogramSumsToOne(t *testing.T) {
	im := noiseImage(1, 8, 8, 3)
	h := im.Histogram(16)
	s := 0.0
	for _, v := range h {
		s += v
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("histogram sums to %v", s)
	}
}

func TestHistogramPlacement(t *testing.T) {
	im := FromPixels([]float64{0, 0, 255, 255}, 1, 2, 2)
	h := im.Histogram(2)
	if h[0] != 0.5 || h[1] != 0.5 {
		t.Fatalf("histogram = %v, want [0.5 0.5]", h)
	}
}

func TestMAPEIdentical(t *testing.T) {
	a := noiseImage(1, 5, 5, 4)
	if MAPE(a, a) != 0 {
		t.Fatal("MAPE of identical images must be 0")
	}
}

func TestMAPEKnownOffset(t *testing.T) {
	a := gradientImage(1, 4, 4)
	b := a.Clone()
	for i := range b.Pix {
		b.Pix[i] += 7
	}
	if got := MAPE(a, b); math.Abs(got-7) > 1e-12 {
		t.Fatalf("MAPE = %v, want 7", got)
	}
}

func TestMAPESymmetricProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := noiseImage(1, 4, 4, seed)
		b := noiseImage(1, 4, 4, seed+1)
		return math.Abs(MAPE(a, b)-MAPE(b, a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMAPEMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MAPE(New(1, 2, 2), New(1, 3, 3))
}

func TestRecognizableThreshold(t *testing.T) {
	a := gradientImage(1, 4, 4)
	good := a.Clone()
	for i := range good.Pix {
		good.Pix[i] += 10
	}
	bad := a.Clone()
	for i := range bad.Pix {
		bad.Pix[i] += 30
	}
	if !Recognizable(a, good) {
		t.Fatal("MAPE 10 should be recognizable")
	}
	if Recognizable(a, bad) {
		t.Fatal("MAPE 30 should not be recognizable")
	}
}

func TestSSIMIdenticalIsOne(t *testing.T) {
	a := noiseImage(1, 16, 16, 5)
	if got := SSIM(a, a); math.Abs(got-1) > 1e-9 {
		t.Fatalf("SSIM(a,a) = %v, want 1", got)
	}
}

func TestSSIMUncorrelatedNoiseLow(t *testing.T) {
	a := noiseImage(1, 16, 16, 6)
	b := noiseImage(1, 16, 16, 7)
	if got := SSIM(a, b); got > 0.3 {
		t.Fatalf("SSIM of unrelated noise = %v, want < 0.3", got)
	}
}

func TestSSIMDegradesWithNoise(t *testing.T) {
	a := gradientImage(1, 16, 16)
	rng := rand.New(rand.NewSource(8))
	mild := a.Clone()
	heavy := a.Clone()
	for i := range a.Pix {
		mild.Pix[i] = clampPix(mild.Pix[i] + rng.NormFloat64()*8)
		heavy.Pix[i] = clampPix(heavy.Pix[i] + rng.NormFloat64()*80)
	}
	sMild := SSIM(a, mild)
	sHeavy := SSIM(a, heavy)
	if !(sMild > sHeavy) {
		t.Fatalf("SSIM not monotone in noise: mild %v heavy %v", sMild, sHeavy)
	}
	if sMild < 0.5 {
		t.Fatalf("mild-noise SSIM = %v, want > 0.5", sMild)
	}
}

func TestSSIMSmallImageFallback(t *testing.T) {
	a := noiseImage(1, 4, 4, 9)
	if got := SSIM(a, a); math.Abs(got-1) > 1e-9 {
		t.Fatalf("small-image SSIM = %v", got)
	}
}

func TestPNMRoundTripGray(t *testing.T) {
	a := noiseImage(1, 6, 5, 10)
	for i := range a.Pix {
		a.Pix[i] = math.Round(a.Pix[i])
	}
	var buf bytes.Buffer
	if err := a.WritePNM(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := ReadPNM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.C != 1 || b.H != 6 || b.W != 5 {
		t.Fatalf("round-trip geometry %dx%dx%d", b.C, b.H, b.W)
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatalf("pixel %d: %v vs %v", i, a.Pix[i], b.Pix[i])
		}
	}
}

func TestPNMRoundTripRGB(t *testing.T) {
	a := noiseImage(3, 4, 4, 11)
	for i := range a.Pix {
		a.Pix[i] = math.Round(a.Pix[i])
	}
	var buf bytes.Buffer
	if err := a.WritePNM(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := ReadPNM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.C != 3 {
		t.Fatalf("round-trip channels = %d", b.C)
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatalf("pixel %d: %v vs %v", i, a.Pix[i], b.Pix[i])
		}
	}
}

func TestPNMHeaderComments(t *testing.T) {
	raw := "P5 # comment\n# another comment\n2 2\n255\n" + string([]byte{1, 2, 3, 4})
	im, err := ReadPNM(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if im.Pix[3] != 4 {
		t.Fatalf("pixel 3 = %v", im.Pix[3])
	}
}

func TestPNMBadMagic(t *testing.T) {
	if _, err := ReadPNM(strings.NewReader("P3\n1 1\n255\n0")); err == nil {
		t.Fatal("expected error for ASCII PNM")
	}
}

func TestPNMShortData(t *testing.T) {
	raw := "P5\n4 4\n255\n" + string([]byte{1, 2})
	if _, err := ReadPNM(strings.NewReader(raw)); err == nil {
		t.Fatal("expected error for truncated pixels")
	}
}

func TestASCIIRender(t *testing.T) {
	im := FromPixels([]float64{0, 255, 128, 64}, 1, 2, 2)
	s := im.ASCII()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 2 || len(lines[0]) != 2 {
		t.Fatalf("ASCII shape wrong: %q", s)
	}
	if lines[0][0] != ' ' {
		t.Fatalf("black pixel rendered as %q", lines[0][0])
	}
	if lines[0][1] != '@' {
		t.Fatalf("white pixel rendered as %q", lines[0][1])
	}
}

func TestSideBySideASCII(t *testing.T) {
	a := New(1, 2, 3)
	b := New(1, 2, 3)
	s := SideBySideASCII([]*Image{a, b}, 2)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("strip has %d rows", len(lines))
	}
	if len(lines[0]) != 3+2+3 {
		t.Fatalf("strip width = %d, want 8", len(lines[0]))
	}
	if SideBySideASCII(nil, 1) != "" {
		t.Fatal("empty strip should be empty string")
	}
}

func TestSavePNM(t *testing.T) {
	im := gradientImage(1, 4, 4)
	path := t.TempDir() + "/test.pgm"
	if err := im.SavePNM(path); err != nil {
		t.Fatal(err)
	}
}

func clampPix(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return v
}

package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestDenseForwardExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 2, 3, rng)
	d.W.Value.CopyFrom(tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2))
	d.B.Value.CopyFrom(tensor.FromSlice([]float64{0.5, -0.5, 1}, 3))
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	y := d.Forward(serialCtx, x, false)
	want := []float64{3.5, 6.5, 12}
	for i, v := range want {
		if math.Abs(y.Data()[i]-v) > 1e-12 {
			t.Fatalf("dense out[%d] = %v, want %v", i, y.Data()[i], v)
		}
	}
}

// TestParamWeightsView pins a parameter's eval view: dense over its floats
// until BindCodebook, then the codebook, with the float storage gone, the
// element count kept, and the layer's forward pass reading the bound view.
func TestParamWeightsView(t *testing.T) {
	d := NewDense("d", 2, 3, rand.New(rand.NewSource(1)))
	d.W.Value.CopyFrom(tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2))
	w := d.W.Weights()
	if !w.IsDense() || w.Len() != 6 || w.At(5) != 6 {
		t.Fatalf("unbound view: dense=%v len=%d, want the parameter's 6 floats", w.IsDense(), w.Len())
	}
	x := tensor.FromSlice([]float64{1, -1}, 1, 2)
	want := d.Forward(serialCtx, x, false).Data()

	d.W.BindCodebook([]float64{6, 5, 4, 3, 2, 1}, []uint8{5, 4, 3, 2, 1, 0})
	w = d.W.Weights()
	if w.IsDense() || w.Len() != 6 || w.At(5) != 6 {
		t.Fatalf("bound view: dense=%v len=%d, want the 6-element codebook", w.IsDense(), w.Len())
	}
	if d.W.Value.Len() != 0 || d.W.Grad.Len() != 0 {
		t.Fatalf("bound parameter keeps %d values and %d gradients", d.W.Value.Len(), d.W.Grad.Len())
	}
	if d.W.NumEl() != 6 {
		t.Fatalf("NumEl %d after binding, want 6", d.W.NumEl())
	}
	got := d.Forward(serialCtx, x, false).Data()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("out[%d]: codebook %v, floats %v", i, got[i], want[i])
		}
	}
}

func TestConv2DForwardExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv2D("c", 1, 3, 3, 1, 2, 1, 0, rng)
	// Kernel = all ones, bias = 0 → each output is the 2x2 window sum.
	c.W.Value.Fill(1)
	c.B.Value.Zero()
	x := tensor.FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	y := c.Forward(serialCtx, x, false)
	want := []float64{12, 16, 24, 28}
	for i, v := range want {
		if math.Abs(y.Data()[i]-v) > 1e-12 {
			t.Fatalf("conv out[%d] = %v, want %v", i, y.Data()[i], v)
		}
	}
}

func TestConv2DBiasBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D("c", 1, 2, 2, 2, 1, 1, 0, rng)
	c.W.Value.Zero()
	c.B.Value.CopyFrom(tensor.FromSlice([]float64{1.5, -2}, 2))
	x := tensor.New(1, 1, 2, 2)
	y := c.Forward(serialCtx, x, false)
	for i := 0; i < 4; i++ {
		if y.Data()[i] != 1.5 {
			t.Fatalf("channel 0 elem %d = %v, want 1.5", i, y.Data()[i])
		}
		if y.Data()[4+i] != -2 {
			t.Fatalf("channel 1 elem %d = %v, want -2", i, y.Data()[4+i])
		}
	}
}

func TestReLUForward(t *testing.T) {
	r := NewReLU("r")
	x := tensor.FromSlice([]float64{-1, 0, 2}, 1, 3)
	y := r.Forward(serialCtx, x, false)
	want := []float64{0, 0, 2}
	for i, v := range want {
		if y.Data()[i] != v {
			t.Fatalf("relu out[%d] = %v, want %v", i, y.Data()[i], v)
		}
	}
	if x.Data()[0] != -1 {
		t.Fatal("ReLU must not mutate its input")
	}
}

func TestGlobalAvgPoolForward(t *testing.T) {
	p := NewGlobalAvgPool("gap", 2, 2, 2)
	x := tensor.FromSlice([]float64{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	y := p.Forward(serialCtx, x, false)
	if y.Data()[0] != 2.5 || y.Data()[1] != 25 {
		t.Fatalf("gap out = %v, want [2.5 25]", y.Data())
	}
}

func TestBatchNormTrainStats(t *testing.T) {
	bn := NewBatchNorm2D("bn", 1)
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(8, 1, 4, 4).RandN(rng, 5, 3)
	y := bn.Forward(serialCtx, x, true)
	if m := y.Mean(); math.Abs(m) > 1e-10 {
		t.Fatalf("bn train output mean = %v, want 0", m)
	}
	if s := y.Std(); math.Abs(s-1) > 1e-6 {
		t.Fatalf("bn train output std = %v, want 1", s)
	}
}

func TestBatchNormRunningStatsConverge(t *testing.T) {
	bn := NewBatchNorm2D("bn", 1)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		x := tensor.New(16, 1, 2, 2).RandN(rng, 7, 2)
		bn.Forward(serialCtx, x, true)
	}
	if math.Abs(bn.RunMean[0]-7) > 0.3 {
		t.Fatalf("running mean = %v, want ≈7", bn.RunMean[0])
	}
	if math.Abs(bn.RunVar[0]-4) > 1.0 {
		t.Fatalf("running var = %v, want ≈4", bn.RunVar[0])
	}
	// Eval mode should now roughly standardize fresh data from the same
	// distribution.
	x := tensor.New(64, 1, 2, 2).RandN(rng, 7, 2)
	y := bn.Forward(serialCtx, x, false)
	if m := y.Mean(); math.Abs(m) > 0.2 {
		t.Fatalf("bn eval mean = %v, want ≈0", m)
	}
}

func TestSoftmaxCrossEntropyUniform(t *testing.T) {
	logits := tensor.New(2, 4) // all zeros → uniform
	loss, _ := SoftmaxCrossEntropy(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-9 {
		t.Fatalf("uniform CE loss = %v, want ln(4)", loss)
	}
}

func TestSoftmaxCrossEntropyBadLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range label")
		}
	}()
	SoftmaxCrossEntropy(tensor.New(1, 3), []int{3})
}

func TestSequentialComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seq := NewSequential("s",
		NewDense("fc1", 4, 8, rng),
		NewReLU("r1"),
		NewDense("fc2", 8, 2, rng),
	)
	if got := len(seq.Params()); got != 4 {
		t.Fatalf("sequential param count = %d, want 4", got)
	}
	x := tensor.New(3, 4).RandN(rng, 0, 1)
	y := seq.Forward(serialCtx, x, true)
	if y.Dim(0) != 3 || y.Dim(1) != 2 {
		t.Fatalf("sequential out shape %v", y.Shape())
	}
	dx := seq.Backward(serialCtx, tensor.New(3, 2).RandN(rng, 0, 1))
	if dx.Dim(1) != 4 {
		t.Fatalf("sequential input grad shape %v", dx.Shape())
	}
}

func TestResNetConstruction(t *testing.T) {
	m := NewResNet(DefaultCIFARConfig(1, 10))
	if m.Classes != 10 {
		t.Fatalf("classes = %d", m.Classes)
	}
	// 1 stem + 2 convs × 6 blocks = 13 conv indices, dense = 14.
	if got := m.MaxConvIndex(); got != 14 {
		t.Fatalf("MaxConvIndex = %d, want 14", got)
	}
	if m.NumParams() < 10000 {
		t.Fatalf("suspiciously few params: %d", m.NumParams())
	}
	x := tensor.New(2, 1, 16, 16).RandN(rand.New(rand.NewSource(8)), 0, 1)
	y := m.Forward(x)
	if y.Dim(0) != 2 || y.Dim(1) != 10 {
		t.Fatalf("resnet out shape %v", y.Shape())
	}
}

func TestResNetTrainBackwardFinite(t *testing.T) {
	m := NewResNet(ResNetConfig{InC: 1, InH: 8, InW: 8, Classes: 4, Widths: []int{4, 8}, Blocks: []int{1, 1}, Seed: 3})
	rng := rand.New(rand.NewSource(9))
	x := tensor.New(4, 1, 8, 8).RandN(rng, 0, 1)
	labels := []int{0, 1, 2, 3}
	logits := m.ForwardTrain(x)
	_, grad := nn_sce(logits, labels)
	m.Backward(grad)
	for _, p := range m.Params() {
		if !p.Grad.IsFinite() {
			t.Fatalf("non-finite grad in %s", p.Name)
		}
	}
}

// nn_sce aliases SoftmaxCrossEntropy for readability in tests.
func nn_sce(l *tensor.Tensor, y []int) (float64, *tensor.Tensor) {
	return SoftmaxCrossEntropy(l, y)
}

func TestModelGroupsByConvIndex(t *testing.T) {
	m := NewResNet(DefaultCIFARConfig(1, 10))
	groups := m.GroupsByConvIndex([]int{5, 9})
	if len(groups) != 3 {
		t.Fatalf("group count = %d, want 3", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += g.NumEl
		for _, p := range g.Params {
			if !p.Weight {
				t.Fatalf("group %s contains non-weight param %s", g.Name, p.Name)
			}
		}
	}
	if total != m.NumWeightParams() {
		t.Fatalf("groups cover %d weights, model has %d", total, m.NumWeightParams())
	}
	// Bounds respected.
	for _, p := range groups[0].Params {
		if p.ConvIndex > 5 {
			t.Fatalf("group1 has conv index %d", p.ConvIndex)
		}
	}
	for _, p := range groups[2].Params {
		if p.ConvIndex <= 9 {
			t.Fatalf("group3 has conv index %d", p.ConvIndex)
		}
	}
}

func TestGroupFlattenScatterRoundTrip(t *testing.T) {
	m := NewMLP("mlp", 10, []int{8}, 3, 42)
	groups := m.GroupsByConvIndex([]int{1})
	g := groups[1]
	v := g.FlattenValues()
	for i := range v {
		v[i] = float64(i)
	}
	g.ScatterValues(v)
	v2 := g.FlattenValues()
	for i := range v2 {
		if v2[i] != float64(i) {
			t.Fatalf("round trip mismatch at %d: %v", i, v2[i])
		}
	}
}

func TestGroupAddToGrads(t *testing.T) {
	m := NewMLP("mlp", 4, nil, 2, 43)
	m.ZeroGrad()
	groups := m.GroupsByConvIndex(nil)
	g := groups[0]
	v := make([]float64, g.NumEl)
	for i := range v {
		v[i] = 1
	}
	g.AddToGrads(v)
	for _, p := range g.Params {
		for i, gv := range p.Grad.Data() {
			if gv != 1 {
				t.Fatalf("%s grad[%d] = %v, want 1", p.Name, i, gv)
			}
		}
	}
}

func TestPredictAndAccuracy(t *testing.T) {
	m := NewMLP("mlp", 2, nil, 2, 44)
	// Make the classifier trivially separable: class = sign of x0.
	fc := m.Net.(*Sequential).Layers[0].(*Dense)
	fc.W.Value.CopyFrom(tensor.FromSlice([]float64{1, 0, -1, 0}, 2, 2))
	fc.B.Value.Zero()
	x := tensor.FromSlice([]float64{5, 0, -5, 0, 3, 1, -2, 9}, 4, 2)
	labels := []int{0, 1, 0, 1}
	if acc := m.Accuracy(x, labels, 2); acc != 1 {
		t.Fatalf("accuracy = %v, want 1", acc)
	}
	preds := m.Predict(x, 3)
	want := []int{0, 1, 0, 1}
	for i := range want {
		if preds[i] != want[i] {
			t.Fatalf("pred[%d] = %d, want %d", i, preds[i], want[i])
		}
	}
}

func TestMLPConvIndices(t *testing.T) {
	m := NewMLP("mlp", 6, []int{5, 4}, 3, 45)
	if got := m.MaxConvIndex(); got != 3 {
		t.Fatalf("MLP MaxConvIndex = %d, want 3", got)
	}
	ws := m.WeightParams()
	if len(ws) != 3 {
		t.Fatalf("MLP weight params = %d, want 3", len(ws))
	}
}

func TestParamStringAndNumEl(t *testing.T) {
	m := NewMLP("m", 3, nil, 2, 46)
	p := m.WeightParams()[0]
	if p.NumEl() != 6 {
		t.Fatalf("NumEl = %d, want 6", p.NumEl())
	}
	if p.String() == "" {
		t.Fatal("empty param string")
	}
}

package quantize

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

func testModel(seed int64) *nn.Model {
	return nn.NewMLP("m", 8, []int{16, 12}, 4, seed)
}

func trainingBlob(n int, seed int64) (*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(n, 8)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 4
		for j := 0; j < 8; j++ {
			v := rng.NormFloat64() * 0.3
			if j == c*2 {
				v += 2
			}
			x.Set(v, i, j)
		}
		y[i] = c
	}
	return x, y
}

func TestQuantizeModelReducesDistinctValues(t *testing.T) {
	m := testModel(1)
	a := QuantizeModel(m, WeightedEntropy{}, 16)
	uniq := a.UniqueValues()
	for name, n := range uniq {
		if n > 16 {
			t.Fatalf("unit %s has %d distinct values", name, n)
		}
	}
	if len(a.Units) != len(m.WeightParams()) {
		t.Fatalf("units %d, want %d", len(a.Units), len(m.WeightParams()))
	}
}

func TestQuantizeUnitSharedCodebook(t *testing.T) {
	m := testModel(2)
	a := &Applied{}
	u := a.QuantizeUnit("all", m.WeightParams(), Linear{LloydIters: 3}, 8)
	if u.NumEl() != m.NumWeightParams() {
		t.Fatalf("unit NumEl %d, want %d", u.NumEl(), m.NumWeightParams())
	}
	// All values across all params must come from one 8-entry codebook.
	seen := map[float64]bool{}
	for _, p := range m.WeightParams() {
		for _, v := range p.Value.Data() {
			seen[v] = true
		}
	}
	if len(seen) > 8 {
		t.Fatalf("%d distinct values across unit", len(seen))
	}
}

func TestQuantizeUnitEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Applied{}).QuantizeUnit("x", nil, Linear{}, 4)
}

func TestRewriteTracksCentroidEdits(t *testing.T) {
	m := testModel(3)
	a := &Applied{}
	u := a.QuantizeUnit("all", m.WeightParams(), Linear{}, 4)
	for i := range u.Book.Levels {
		u.Book.Levels[i] = float64(100 + i)
	}
	a.Rewrite()
	for _, p := range m.WeightParams() {
		for _, v := range p.Value.Data() {
			if v < 100 || v > 103 {
				t.Fatalf("value %v not rewritten from centroids", v)
			}
		}
	}
}

func TestAssignmentsMatchValues(t *testing.T) {
	m := testModel(4)
	a := &Applied{}
	u := a.QuantizeUnit("all", m.WeightParams(), WeightedEntropy{}, 8)
	for pi, p := range u.Params {
		vd := p.Value.Data()
		for i, k := range u.Assign[pi] {
			if vd[i] != u.Book.Levels[k] {
				t.Fatalf("param %s elem %d: value %v, centroid %v", p.Name, i, vd[i], u.Book.Levels[k])
			}
		}
	}
}

// TestCodebookNativeBitIdentical pins that a record's levels and
// assignments fully determine the quantized weights: binding every unit as
// codebook views scores bit-identically to the rewritten float weights, at
// one worker and at four, over conv layers (W·col form) and the dense head
// (a·Wᵀ form).
func TestCodebookNativeBitIdentical(t *testing.T) {
	m := nn.NewResNet(nn.ResNetConfig{
		InC: 1, InH: 8, InW: 8, Classes: 4,
		Widths: []int{4, 8}, Blocks: []int{1, 1}, Seed: 31,
	})
	a := QuantizeModel(m, WeightedEntropy{}, 8)
	rng := rand.New(rand.NewSource(32))
	inputs := make([][]float64, 6)
	for i := range inputs {
		inputs[i] = make([]float64, m.InputLen())
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
	}

	threads := []int{1, 4}
	want := make([][][]float64, len(threads))
	for ti, n := range threads {
		m.SetThreads(n)
		out, err := m.EvalBatch(inputs)
		if err != nil {
			t.Fatal(err)
		}
		want[ti] = out
	}
	for _, u := range a.Units {
		for pi, p := range u.Params {
			idx := make([]uint8, len(u.Assign[pi]))
			for i, k := range u.Assign[pi] {
				idx[i] = uint8(k)
			}
			p.BindCodebook(u.Book.Levels, idx)
		}
	}
	for ti, n := range threads {
		m.SetThreads(n)
		got, err := m.EvalBatch(inputs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want[ti] {
			for j := range want[ti][i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[ti][i][j]) {
					t.Fatalf("threads=%d sample %d logit %d: codebook %v != dense %v",
						n, i, j, got[i][j], want[ti][i][j])
				}
			}
		}
	}
}

// Quantization at a generous level count should barely hurt a trained
// model, and fine-tuning should recover (or improve) accuracy at a low
// level count. This is the substrate behaviour Tables I and III depend on.
func TestQuantizeAndFineTuneAccuracy(t *testing.T) {
	m := testModel(5)
	x, y := trainingBlob(400, 5)
	// Train to high accuracy with plain SGD.
	train.Run(m, x, y, train.Config{Epochs: 30, Optimizer: train.NewSGD(0.1, 0, 0), Seed: 9})
	accFull := m.Accuracy(x, y, 64)
	if accFull < 0.95 {
		t.Fatalf("base model accuracy %v too low for the test to be meaningful", accFull)
	}

	// Aggressive 2-level quantization hurts.
	harsh := testModel(5)
	copyParams(harsh, m)
	aHarsh := QuantizeModel(harsh, WeightedEntropy{}, 2)
	accHarsh := harsh.Accuracy(x, y, 64)

	// Fine-tuning recovers some accuracy while staying 2-valued.
	FineTune(harsh, aHarsh, x, y, FineTuneConfig{Epochs: 10, BatchSize: 32, LR: 0.05, Seed: 5})
	accTuned := harsh.Accuracy(x, y, 64)
	if accTuned < accHarsh-0.05 {
		t.Fatalf("fine-tuning hurt: %v -> %v", accHarsh, accTuned)
	}
	for name, n := range aHarsh.UniqueValues() {
		if n > 2 {
			t.Fatalf("unit %s has %d distinct values after fine-tune", name, n)
		}
	}

	// Generous 64-level quantization barely hurts.
	soft := testModel(5)
	copyParams(soft, m)
	QuantizeModel(soft, WeightedEntropy{}, 64)
	accSoft := soft.Accuracy(x, y, 64)
	if accSoft < accFull-0.05 {
		t.Fatalf("64-level quantization dropped accuracy %v -> %v", accFull, accSoft)
	}
}

func TestFineTuneNoEpochsIsNoop(t *testing.T) {
	m := testModel(6)
	x, y := trainingBlob(64, 6)
	a := QuantizeModel(m, Linear{}, 4)
	before := snapshot(m)
	FineTune(m, a, x, y, FineTuneConfig{Epochs: 0})
	after := snapshot(m)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("FineTune with 0 epochs modified the model")
		}
	}
}

func copyParams(dst, src *nn.Model) {
	dp, sp := dst.Params(), src.Params()
	for i := range dp {
		dp[i].Value.CopyFrom(sp[i].Value)
	}
}

func snapshot(m *nn.Model) []float64 {
	var out []float64
	for _, p := range m.Params() {
		out = append(out, p.Value.Data()...)
	}
	return out
}

package train

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// twoBlobs builds a linearly separable 2-class problem.
func twoBlobs(n int, seed int64) (*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		cx := -2.0
		if c == 1 {
			cx = 2.0
		}
		x.Set(cx+rng.NormFloat64()*0.5, i, 0)
		x.Set(rng.NormFloat64()*0.5, i, 1)
		y[i] = c
	}
	return x, y
}

// rings builds a non-linearly-separable 2-class problem (inner/outer ring).
func rings(n int, seed int64) (*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		r := 1.0
		if c == 1 {
			r = 3.0
		}
		a := rng.Float64() * 2 * math.Pi
		x.Set(r*math.Cos(a)+rng.NormFloat64()*0.2, i, 0)
		x.Set(r*math.Sin(a)+rng.NormFloat64()*0.2, i, 1)
		y[i] = c
	}
	return x, y
}

func TestSGDLearnsLinearProblem(t *testing.T) {
	x, y := twoBlobs(200, 1)
	m := nn.NewMLP("m", 2, nil, 2, 7)
	res := Run(m, x, y, Config{
		Epochs: 20, BatchSize: 16,
		Optimizer: NewSGD(0.1, 0, 0),
		Seed:      1,
	})
	if acc := m.Accuracy(x, y, 32); acc < 0.98 {
		t.Fatalf("SGD accuracy = %v, want ≥0.98", acc)
	}
	if res.FinalLoss() > 0.2 {
		t.Fatalf("final loss = %v", res.FinalLoss())
	}
	if len(res.Epochs) != 20 {
		t.Fatalf("epoch stats = %d, want 20", len(res.Epochs))
	}
}

func TestMomentumLearnsNonlinearProblem(t *testing.T) {
	x, y := rings(400, 2)
	m := nn.NewMLP("m", 2, []int{16}, 2, 8)
	Run(m, x, y, Config{
		Epochs: 60, BatchSize: 32,
		Optimizer: NewSGD(0.05, 0.9, 0),
		Seed:      2,
	})
	if acc := m.Accuracy(x, y, 64); acc < 0.95 {
		t.Fatalf("momentum accuracy = %v, want ≥0.95", acc)
	}
}

func TestAdamLearnsNonlinearProblem(t *testing.T) {
	x, y := rings(400, 3)
	m := nn.NewMLP("m", 2, []int{16}, 2, 9)
	Run(m, x, y, Config{
		Epochs: 40, BatchSize: 32,
		Optimizer: NewAdam(0.01),
		Seed:      3,
	})
	if acc := m.Accuracy(x, y, 64); acc < 0.95 {
		t.Fatalf("adam accuracy = %v, want ≥0.95", acc)
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	x, y := twoBlobs(100, 4)
	big := nn.NewMLP("big", 2, nil, 2, 10)
	small := nn.NewMLP("small", 2, nil, 2, 10)
	Run(big, x, y, Config{Epochs: 30, BatchSize: 20, Optimizer: NewSGD(0.05, 0, 0), Seed: 4})
	Run(small, x, y, Config{Epochs: 30, BatchSize: 20, Optimizer: NewSGD(0.05, 0, 0.1), Seed: 4})
	nb := 0.0
	ns := 0.0
	for _, p := range big.WeightParams() {
		nb += p.Value.Norm2()
	}
	for _, p := range small.WeightParams() {
		ns += p.Value.Norm2()
	}
	if ns >= nb {
		t.Fatalf("weight decay did not shrink weights: %v vs %v", ns, nb)
	}
}

func TestStepDecaySchedule(t *testing.T) {
	s := StepDecay(1.0, 10, 0.5)
	if s(0) != 1.0 || s(9) != 1.0 {
		t.Fatal("step decay changed too early")
	}
	if s(10) != 0.5 || s(25) != 0.25 {
		t.Fatalf("step decay wrong: s(10)=%v s(25)=%v", s(10), s(25))
	}
}

func TestScheduleAppliedDuringRun(t *testing.T) {
	x, y := twoBlobs(64, 5)
	m := nn.NewMLP("m", 2, nil, 2, 11)
	res := Run(m, x, y, Config{
		Epochs: 3, BatchSize: 16,
		Optimizer: NewSGD(99, 0, 0),
		Schedule:  StepDecay(0.5, 1, 0.1),
		Seed:      5,
	})
	if res.Epochs[0].LR != 0.5 {
		t.Fatalf("epoch0 LR = %v, want 0.5", res.Epochs[0].LR)
	}
	if math.Abs(res.Epochs[2].LR-0.005) > 1e-12 {
		t.Fatalf("epoch2 LR = %v, want 0.005", res.Epochs[2].LR)
	}
}

// countingReg counts Apply invocations and adds no gradient.
type countingReg struct{ calls int }

func (c *countingReg) Apply(m *nn.Model) float64 {
	c.calls++
	return 1.5
}

func TestRegularizerHookCalledPerStep(t *testing.T) {
	x, y := twoBlobs(64, 6)
	m := nn.NewMLP("m", 2, nil, 2, 12)
	reg := &countingReg{}
	res := Run(m, x, y, Config{
		Epochs: 2, BatchSize: 16,
		Optimizer: NewSGD(0.05, 0, 0),
		Reg:       reg,
		Seed:      6,
	})
	if want := 2 * (64 / 16); reg.calls != want {
		t.Fatalf("regularizer called %d times, want %d", reg.calls, want)
	}
	if math.Abs(res.Epochs[0].RegLoss-1.5) > 1e-12 {
		t.Fatalf("reg loss logged = %v, want 1.5", res.Epochs[0].RegLoss)
	}
}

// pullReg pushes all weights toward +10 via the hook, to verify the hook's
// gradients actually reach the optimizer.
type pullReg struct{}

func (pullReg) Apply(m *nn.Model) float64 {
	for _, p := range m.WeightParams() {
		gd := p.Grad.Data()
		vd := p.Value.Data()
		for i := range gd {
			gd[i] += vd[i] - 10 // gradient of 0.5*(w-10)^2
		}
	}
	return 0
}

func TestRegularizerGradientsInfluenceTraining(t *testing.T) {
	x, y := twoBlobs(64, 7)
	m := nn.NewMLP("m", 2, nil, 2, 13)
	Run(m, x, y, Config{
		Epochs: 50, BatchSize: 16,
		Optimizer: NewSGD(0.05, 0, 0),
		Reg:       pullReg{},
		Seed:      7,
	})
	w := m.WeightParams()[0].Value
	if w.Mean() < 5 {
		t.Fatalf("regularizer pull ignored: mean weight %v", w.Mean())
	}
}

func TestClipNormBoundsUpdates(t *testing.T) {
	x, y := twoBlobs(64, 8)
	m := nn.NewMLP("m", 2, nil, 2, 14)
	// Enormous regularizer gradient; without clipping this would explode.
	blow := regFunc(func(m *nn.Model) float64 {
		for _, p := range m.Params() {
			p.Grad.AddScalar(1e9)
		}
		return 0
	})
	Run(m, x, y, Config{
		Epochs: 2, BatchSize: 16,
		Optimizer: NewSGD(0.1, 0, 0),
		Reg:       blow,
		ClipNorm:  1.0,
		Seed:      8,
	})
	for _, p := range m.Params() {
		if !p.Value.IsFinite() {
			t.Fatal("parameters exploded despite ClipNorm")
		}
		if math.Abs(p.Value.Mean()) > 100 {
			t.Fatalf("parameters drifted too far: %v", p.Value.Mean())
		}
	}
}

type regFunc func(*nn.Model) float64

func (f regFunc) Apply(m *nn.Model) float64 { return f(m) }

func TestRunPanicsWithoutOptimizer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	x, y := twoBlobs(16, 9)
	Run(nn.NewMLP("m", 2, nil, 2, 15), x, y, Config{Epochs: 1})
}

func TestRunLabelMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	x, _ := twoBlobs(16, 10)
	Run(nn.NewMLP("m", 2, nil, 2, 16), x, []int{0}, Config{Epochs: 1, Optimizer: NewSGD(0.1, 0, 0)})
}

func TestDeterministicTraining(t *testing.T) {
	x, y := twoBlobs(64, 11)
	run := func() []float64 {
		m := nn.NewMLP("m", 2, []int{8}, 2, 17)
		Run(m, x, y, Config{Epochs: 5, BatchSize: 16, Optimizer: NewSGD(0.05, 0.9, 0), Seed: 11})
		return append([]float64(nil), m.WeightParams()[0].Value.Data()...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("training not deterministic at weight %d", i)
		}
	}
}

package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/modelio"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Heap allocations of the release architecture's passes at one thread: a
// warmed training step (forward, loss, backward) at batch 32, and a
// batch-16 EvalBatch with dense and with codebook-native weights. Layer
// outputs and gradients are allocated per pass; im2col and matmul scratch
// come from the worker arenas and must not add to these counts. The counts
// move with the runtime, so they are pinned for the Go release they were
// recorded on.
const (
	passAllocsGo      = "go1.24.0"
	trainStepAllocs   = 497
	evalDenseAllocs   = 246
	evalNativeAllocs  = 246
	allocsBatchTrain  = 32
	allocsBatchEval   = 16
	allocsCountedRuns = 5
)

// raceBuild reports whether the test binary was built with -race, which
// instruments allocations and makes the counts meaningless.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// passAllocs counts fn's allocations after one warm-up call, with the
// collector off so a collection cannot land in one of the counted runs.
func passAllocs(fn func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(allocsCountedRuns, fn)
}

// checkPassAllocs compares a count to its pin on the pinned Go release.
func checkPassAllocs(t *testing.T, what string, got float64, want int) {
	t.Helper()
	t.Logf("%s: %s allocates %.0f", runtime.Version(), what, got)
	if runtime.Version() != passAllocsGo || raceBuild() {
		t.Skipf("counts are pinned for %s without -race", passAllocsGo)
	}
	if got != float64(want) {
		t.Fatalf("%s allocates %.0f, pinned %d", what, got, want)
	}
}

func evalInputs(m *nn.Model, n int) [][]float64 {
	rng := rand.New(rand.NewSource(3))
	in := make([][]float64, n)
	for i := range in {
		in[i] = make([]float64, m.InputLen())
		for j := range in[i] {
			in[i][j] = rng.NormFloat64()
		}
	}
	return in
}

func TestTrainStepAllocs(t *testing.T) {
	m := nn.NewResNet(CIFARRelease().ArchConfig(1))
	m.SetThreads(1)
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(append([]int{allocsBatchTrain}, m.InputShape...)...).RandN(rng, 0, 1)
	y := make([]int, allocsBatchTrain)
	for i := range y {
		y[i] = i % 10
	}
	step := func() {
		m.ZeroGrad()
		_, grad := nn.SoftmaxCrossEntropy(m.ForwardTrain(x), y)
		m.Backward(grad)
	}
	step()
	checkPassAllocs(t, "a batch-32 training step", passAllocs(step), trainStepAllocs)
}

func TestEvalBatchAllocs(t *testing.T) {
	rm, err := modelio.Read(bytes.NewReader(serialSmokeRelease(t)))
	if err != nil {
		t.Fatal(err)
	}
	dense, _, err := modelio.Import(rm)
	if err != nil {
		t.Fatal(err)
	}
	native, _, err := modelio.ImportNative(rm)
	if err != nil {
		t.Fatal(err)
	}
	in := evalInputs(dense, allocsBatchEval)
	for _, c := range []struct {
		name string
		m    *nn.Model
		want int
	}{{"dense", dense, evalDenseAllocs}, {"native", native, evalNativeAllocs}} {
		t.Run(c.name, func(t *testing.T) {
			c.m.SetThreads(1)
			got := passAllocs(func() {
				if _, err := c.m.EvalBatch(in); err != nil {
					t.Fatal(err)
				}
			})
			checkPassAllocs(t, "a "+c.name+" batch-16 EvalBatch", got, c.want)
		})
	}
}

package serve

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/api"
	"repro/internal/modelio"
	"repro/internal/nn"
	"repro/internal/quantize"
	"repro/internal/tensor"
)

// The serve tests predate the shared api package; these aliases keep them
// reading naturally while exercising the real wire types.
type (
	predictRequest  = api.PredictRequest
	predictResponse = api.PredictResponse
)

func testArch() nn.ResNetConfig {
	return nn.ResNetConfig{
		InC: 1, InH: 8, InW: 8, Classes: 4,
		Widths: []int{4, 8}, Blocks: []int{1, 1}, Seed: 77,
	}
}

// testModel builds a small ResNet with non-trivial weights and batch-norm
// running statistics, deterministically from seed.
func testModel(seed int64) *nn.Model {
	m := nn.NewResNet(testArch())
	rng := rand.New(rand.NewSource(seed))
	for _, p := range m.Params() {
		p.Value.RandN(rng, 0, 0.1)
	}
	m.ForwardTrain(tensor.New(8, 1, 8, 8).RandN(rng, 0, 1))
	return m
}

// writeReleased exports a test model (quantized when asked) to a released
// file under t.TempDir and returns its path.
func writeReleased(t testing.TB, seed int64, quantized bool) string {
	t.Helper()
	m := testModel(seed)
	var applied *quantize.Applied
	if quantized {
		applied = quantize.QuantizeModel(m, quantize.WeightedEntropy{}, 8)
	}
	rm, err := modelio.Export(m, testArch(), applied)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := modelio.Save(path, rm); err != nil {
		t.Fatal(err)
	}
	return path
}

// referenceModel re-imports a released file on a serial context, the
// offline twin every served prediction is compared against.
func referenceModel(t testing.TB, path string) *nn.Model {
	t.Helper()
	rm, err := modelio.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := modelio.Import(rm)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// testInputs generates n deterministic flattened inputs.
func testInputs(n, length int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		in := make([]float64, length)
		for j := range in {
			in[j] = rng.NormFloat64()
		}
		out[i] = in
	}
	return out
}

// testOpts returns engine options with the given batching bounds and a
// two-worker compute context.
func testOpts(maxBatch, queueDepth int) Options {
	return Options{MaxBatch: maxBatch, QueueDepth: queueDepth, Threads: 2}
}

// fileBytes reads a whole file, failing the test on error.
func fileBytes(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// submitOne submits a single-sample request to e and returns its
// prediction.
func submitOne(e *Engine, in []float64) (Prediction, error) {
	preds, _, err := e.Submit([][]float64{in})
	if err != nil {
		return Prediction{}, err
	}
	return preds[0], nil
}

// predictOne is submitOne through a registry entry.
func predictOne(en *Entry, in []float64) (Prediction, error) {
	return submitOne(en.engine, in)
}

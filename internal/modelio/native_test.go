package modelio

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/quantize"
	"repro/internal/tensor"
)

func quantizedRelease(tb testing.TB, seed int64) *ReleasedModel {
	tb.Helper()
	m := trainedish(seed)
	a := quantize.QuantizeModel(m, quantize.WeightedEntropy{}, 16)
	rm, err := Export(m, arch(), a)
	if err != nil {
		tb.Fatal(err)
	}
	return rm
}

// TestIsRelease: only a released model's header counts; a bare
// quantization record, foreign bytes and a short stream do not.
func TestIsRelease(t *testing.T) {
	rm := quantizedRelease(t, 11)
	var released bytes.Buffer
	if err := Write(&released, rm); err != nil {
		t.Fatal(err)
	}
	if !IsRelease(bytes.NewReader(released.Bytes())) {
		t.Fatal("released model not recognized")
	}

	_, a2, err := Import(rm)
	if err != nil {
		t.Fatal(err)
	}
	var record bytes.Buffer
	if err := quantize.EncodeApplied(&record, quantize.Snapshot(a2)); err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{
		"quantization record": record.Bytes(),
		"foreign bytes":       []byte("not a model file at all"),
		"short stream":        []byte("DAC"),
	} {
		if IsRelease(bytes.NewReader(raw)) {
			t.Fatalf("%s recognized as a release", name)
		}
	}
}

func TestIsReleaseFile(t *testing.T) {
	dir := t.TempDir()
	rm := quantizedRelease(t, 12)
	path := filepath.Join(dir, "model.anything")
	var buf bytes.Buffer
	if err := Write(&buf, rm); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, err := IsReleaseFile(path); err != nil || !ok {
		t.Fatalf("IsReleaseFile = %v, %v; want true", ok, err)
	}
	if _, err := IsReleaseFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file did not error")
	}
}

// TestImportNativeBitIdenticalToImport pins the serving contract: the
// codebook-native model scores every input bit-identically to the
// dequantized model, at one worker and four.
func TestImportNativeBitIdenticalToImport(t *testing.T) {
	rm := quantizedRelease(t, 13)
	deq, _, err := Import(rm)
	if err != nil {
		t.Fatal(err)
	}
	nat, bound, err := ImportNative(rm)
	if err != nil {
		t.Fatal(err)
	}
	if bound == 0 {
		t.Fatal("native import bound no parameters")
	}

	rng := rand.New(rand.NewSource(14))
	inputs := make([][]float64, 5)
	for i := range inputs {
		row := make([]float64, deq.InputLen())
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		inputs[i] = row
	}
	for _, threads := range []int{1, 4} {
		deq.SetThreads(threads)
		nat.SetThreads(threads)
		want, err := deq.EvalBatch(inputs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := nat.EvalBatch(inputs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("threads=%d sample %d logit %d: native %v != dequantized %v",
						threads, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestImportNativeReleasesFloatStorage pins the memory win: bound weight
// parameters drop their float value/grad copies, the model still reports
// its full scalar count, and the eval weight footprint shrinks below the
// dense equivalent.
func TestImportNativeReleasesFloatStorage(t *testing.T) {
	rm := quantizedRelease(t, 15)
	nat, bound, err := ImportNative(rm)
	if err != nil {
		t.Fatal(err)
	}
	released, viewBytes, denseBytes := 0, 0, 0
	for _, p := range nat.WeightParams() {
		w := p.Weights()
		if w.IsDense() {
			continue
		}
		if p.Value.Len() != 0 || p.Grad.Len() != 0 {
			t.Fatalf("bound parameter %s still holds float storage", p.Name)
		}
		released++
		viewBytes += w.Bytes()
		denseBytes += 8 * p.NumEl()
	}
	if released != bound {
		t.Fatalf("released %d params, ImportNative bound %d", released, bound)
	}
	if nat.NumParams() != NumScalars(rm) {
		t.Fatalf("NumParams %d != record scalars %d after release", nat.NumParams(), NumScalars(rm))
	}
	if viewBytes >= denseBytes {
		t.Fatalf("codebook views take %d bytes, dense floats would take %d", viewBytes, denseBytes)
	}
}

// TestImportNativeTrainPanics pins the eval-only contract: a train-mode
// forward through a codebook-bound weight panics, naming the parameter.
func TestImportNativeTrainPanics(t *testing.T) {
	nat, _, err := ImportNative(quantizedRelease(t, 18))
	if err != nil {
		t.Fatal(err)
	}
	first := nat.WeightParams()[0].Name // the first weight a forward pass reads
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("train-mode forward through codebook views did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, first) {
			t.Fatalf("panic %q does not name %s", msg, first)
		}
	}()
	nat.ForwardTrain(tensor.New(append([]int{1}, nat.InputShape...)...))
}

func TestImportNativeRejectsFullPrecision(t *testing.T) {
	m := trainedish(16)
	rm, err := Export(m, arch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ImportNative(rm); err == nil {
		t.Fatal("full-precision model accepted by ImportNative")
	}
}

func TestNumScalarsMatchesImportedModel(t *testing.T) {
	rm := quantizedRelease(t, 17)
	m, _, err := Import(rm)
	if err != nil {
		t.Fatal(err)
	}
	if NumScalars(rm) != m.NumParams() {
		t.Fatalf("NumScalars %d, imported model has %d", NumScalars(rm), m.NumParams())
	}
	// The architecture prices itself without building: stages of one and
	// several blocks, equal widths across a stride-2 stage (which still
	// projects), a single stage.
	for _, cfg := range []nn.ResNetConfig{
		arch(),
		nn.DefaultCIFARConfig(3, 10),
		{InC: 1, InH: 12, InW: 12, Classes: 10, Widths: []int{4, 4, 8}, Blocks: []int{1, 2, 3}},
		{InC: 2, InH: 5, InW: 7, Classes: 3, Widths: []int{5}, Blocks: []int{3}},
	} {
		if got, want := cfg.NumParams(), nn.NewResNet(cfg).NumParams(); got != want {
			t.Fatalf("%+v: NumParams %d, built model has %d", cfg, got, want)
		}
	}
}

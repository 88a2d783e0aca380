package modelio

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/nn"
	"repro/internal/quantize"
	"repro/internal/tensor"
)

func arch() nn.ResNetConfig {
	return nn.ResNetConfig{
		InC: 1, InH: 8, InW: 8, Classes: 4,
		Widths: []int{4, 8}, Blocks: []int{1, 1}, Seed: 9,
	}
}

func trainedish(seed int64) *nn.Model {
	m := nn.NewResNet(arch())
	rng := rand.New(rand.NewSource(seed))
	for _, p := range m.Params() {
		p.Value.RandN(rng, 0, 0.1)
	}
	// Make batch-norm stats non-trivial so the round trip is meaningful.
	x := tensor.New(8, 1, 8, 8).RandN(rng, 0, 1)
	m.ForwardTrain(x)
	return m
}

func TestExportImportFullPrecision(t *testing.T) {
	m := trainedish(1)
	rm, err := Export(m, arch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rm.Quantized) != 0 {
		t.Fatal("unquantized export has quantized units")
	}
	m2, applied, err := Import(rm)
	if err != nil {
		t.Fatal(err)
	}
	if applied != nil {
		t.Fatal("unquantized import returned quantization record")
	}
	checkSameOutputs(t, m, m2)
}

func TestExportImportQuantized(t *testing.T) {
	m := trainedish(2)
	a := quantize.QuantizeModel(m, quantize.WeightedEntropy{}, 16)
	rm, err := Export(m, arch(), a)
	if err != nil {
		t.Fatal(err)
	}
	if len(rm.Quantized) == 0 {
		t.Fatal("quantized export has no units")
	}
	m2, a2, err := Import(rm)
	if err != nil {
		t.Fatal(err)
	}
	if a2 == nil || len(a2.Units) != len(a.Units) {
		t.Fatal("quantization record lost in round trip")
	}
	checkSameOutputs(t, m, m2)
	// Imported model remains properly quantized.
	for name, n := range a2.UniqueValues() {
		if n > 16 {
			t.Fatalf("imported unit %s has %d distinct values", name, n)
		}
	}
}

func TestWriteReadStream(t *testing.T) {
	m := trainedish(3)
	rm, err := Export(m, arch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, rm); err != nil {
		t.Fatal(err)
	}
	rm2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := Import(rm2)
	if err != nil {
		t.Fatal(err)
	}
	checkSameOutputs(t, m, m2)
}

func TestSaveLoadFile(t *testing.T) {
	m := trainedish(4)
	a := quantize.QuantizeModel(m, quantize.Linear{LloydIters: 2}, 8)
	rm, err := Export(m, arch(), a)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.bin"
	if err := Save(path, rm); err != nil {
		t.Fatal(err)
	}
	rm2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := Import(rm2)
	if err != nil {
		t.Fatal(err)
	}
	checkSameOutputs(t, m, m2)
}

func TestReadGarbageFails(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestExportTooManyLevelsFails(t *testing.T) {
	m := trainedish(5)
	a := &quantize.Applied{}
	a.QuantizeUnit("big", m.WeightParams(), quantize.Linear{}, 300)
	if _, err := Export(m, arch(), a); err == nil {
		t.Fatal("expected error for >256 levels")
	}
}

func TestSizeReportQuantizedSmaller(t *testing.T) {
	m := trainedish(6)
	rmFull, err := Export(m, arch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fullSize := Size(rmFull)
	if fullSize.TotalBytes() != fullSize.RawBytes {
		t.Fatalf("uncompressed total %d != raw %d", fullSize.TotalBytes(), fullSize.RawBytes)
	}

	m2 := trainedish(6)
	a := quantize.QuantizeModel(m2, quantize.WeightedEntropy{}, 16)
	rmQ, err := Export(m2, arch(), a)
	if err != nil {
		t.Fatal(err)
	}
	qSize := Size(rmQ)
	if qSize.TotalBytes() >= fullSize.TotalBytes() {
		t.Fatalf("quantized size %d not below full %d", qSize.TotalBytes(), fullSize.TotalBytes())
	}
	if qSize.Ratio() < 2 {
		t.Fatalf("4-bit compression ratio %v suspiciously low", qSize.Ratio())
	}
	if qSize.IndexBits != 4*m2.NumWeightParams() {
		t.Fatalf("index bits %d, want %d", qSize.IndexBits, 4*m2.NumWeightParams())
	}
}

func TestImportRejectsCorruptIndices(t *testing.T) {
	m := trainedish(7)
	a := quantize.QuantizeModel(m, quantize.Linear{}, 4)
	rm, err := Export(m, arch(), a)
	if err != nil {
		t.Fatal(err)
	}
	rm.Quantized[0].Indices[0][0] = 200 // out of range for 4 levels
	if _, _, err := Import(rm); err == nil {
		t.Fatal("expected index range error")
	}
}

func TestImportRejectsUnknownParam(t *testing.T) {
	m := trainedish(8)
	rm, err := Export(m, arch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rm.Dense[0].Name = "no.such.param"
	if _, _, err := Import(rm); err == nil {
		t.Fatal("expected unknown-parameter error")
	}
}

// checkSameOutputs verifies both models produce identical logits, which
// exercises parameters AND batch-norm running statistics.
func checkSameOutputs(t *testing.T, a, b *nn.Model) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	x := tensor.New(4, 1, 8, 8).RandN(rng, 0, 1)
	ya := a.Forward(x)
	yb := b.Forward(x)
	for i := range ya.Data() {
		if ya.Data()[i] != yb.Data()[i] {
			t.Fatalf("logit %d differs: %v vs %v", i, ya.Data()[i], yb.Data()[i])
		}
	}
}

// encodeValid returns a well-formed serialized model for corruption tests.
func encodeValid(t *testing.T, seed int64) []byte {
	t.Helper()
	m := trainedish(seed)
	a := quantize.QuantizeModel(m, quantize.WeightedEntropy{}, 8)
	rm, err := Export(m, arch(), a)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, rm); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadTruncatedFails(t *testing.T) {
	raw := encodeValid(t, 20)
	// Cut inside the magic header, right after it, and mid-payload: every
	// truncation must surface as a wrapped error, never a panic.
	for _, n := range []int{0, 3, len(magic), len(magic) + 10, len(raw) / 2, len(raw) - 1} {
		if _, err := Read(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation at %d bytes: expected error", n)
		}
	}
	if _, err := Read(bytes.NewReader(raw[:3])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("header truncation error = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestReadBadMagicFails(t *testing.T) {
	raw := encodeValid(t, 21)
	raw[0] ^= 0xff
	_, err := Read(bytes.NewReader(raw))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("error = %v, want ErrBadMagic", err)
	}
}

func TestReadRejectsShapeMismatch(t *testing.T) {
	m := trainedish(22)
	rm, err := Export(m, arch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rm.Dense[0].Values = rm.Dense[0].Values[:len(rm.Dense[0].Values)-1]
	var buf bytes.Buffer
	if err := Write(&buf, rm); err == nil {
		// Write validates too; if it somehow passed, Read must not.
		if _, err := Read(&buf); err == nil {
			t.Fatal("expected shape-mismatch error")
		}
	}
}

func TestReadRejectsUnitMismatch(t *testing.T) {
	m := trainedish(23)
	a := quantize.QuantizeModel(m, quantize.WeightedEntropy{}, 8)
	rm, err := Export(m, arch(), a)
	if err != nil {
		t.Fatal(err)
	}
	// Detach one index slice from its parameter name: Import would index
	// past ParamNames without the structural validation.
	rm.Quantized[0].Indices = rm.Quantized[0].Indices[:len(rm.Quantized[0].Indices)-1]
	if err := validate(rm); err == nil {
		t.Fatal("expected unit-mismatch error")
	}
}

func TestReadRejectsEmptyCodebook(t *testing.T) {
	m := trainedish(24)
	a := quantize.QuantizeModel(m, quantize.WeightedEntropy{}, 8)
	rm, err := Export(m, arch(), a)
	if err != nil {
		t.Fatal(err)
	}
	rm.Quantized[0].Levels = nil
	if err := validate(rm); err == nil {
		t.Fatal("expected empty-codebook error")
	}
}

func TestReadWithDigest(t *testing.T) {
	raw := encodeValid(t, 25)
	rm, d1, err := ReadWithDigest(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if rm == nil || len(d1) != 64 {
		t.Fatalf("digest %q not a hex sha-256", d1)
	}
	_, d2, err := ReadWithDigest(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digest not stable: %s vs %s", d1, d2)
	}
	other := encodeValid(t, 26)
	_, d3, err := ReadWithDigest(bytes.NewReader(other))
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("different files share a digest")
	}
}

func TestLoadWithDigestMatchesFileHash(t *testing.T) {
	raw := encodeValid(t, 27)
	path := t.TempDir() + "/model.bin"
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, d, err := LoadWithDigest(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if d != hex.EncodeToString(sum[:]) {
		t.Fatalf("digest %s != file hash", d)
	}
}

// encodeRaw serializes rm the way Write does but without validating it, so
// a test can hand Read the bytes a hostile party would.
func encodeRaw(t *testing.T, rm *ReleasedModel) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(magic)
	if err := gob.NewEncoder(&buf).Encode(rm); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMalformedReleasesRejected feeds in releases an outside party could
// write. Each must fail with ErrMalformed, never a panic. Those that the
// record alone gives away fail in Write and Read, before Read allocates
// anything the header sizes; the rest fail in Import and ImportNative.
func TestMalformedReleasesRejected(t *testing.T) {
	full := func(t *testing.T) *ReleasedModel {
		rm, err := Export(trainedish(40), arch(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return rm
	}
	withArch := func(edit func(a *nn.ResNetConfig)) func(*testing.T) *ReleasedModel {
		return func(t *testing.T) *ReleasedModel {
			rm := full(t)
			edit(&rm.Arch)
			return rm
		}
	}
	cases := []struct {
		name        string
		build       func(*testing.T) *ReleasedModel
		readRejects bool
	}{
		{"widths and blocks differ in length", withArch(func(a *nn.ResNetConfig) { a.Widths, a.Blocks = []int{8, 16}, []int{2} }), true},
		{"no widths", withArch(func(a *nn.ResNetConfig) { a.Widths, a.Blocks = nil, nil }), true},
		{"negative InC", withArch(func(a *nn.ResNetConfig) { a.InC = -1 }), true},
		{"zero InH", withArch(func(a *nn.ResNetConfig) { a.InH = 0 }), true},
		{"zero InW", withArch(func(a *nn.ResNetConfig) { a.InW = 0 }), true},
		{"zero classes", withArch(func(a *nn.ResNetConfig) { a.Classes = 0 }), true},
		{"zero width", withArch(func(a *nn.ResNetConfig) { a.Widths = []int{4, 0} }), true},
		{"negative block count", withArch(func(a *nn.ResNetConfig) { a.Blocks = []int{1, -1} }), true},
		{"parameter count overflows", withArch(func(a *nn.ResNetConfig) { a.Widths, a.Blocks = []int{1 << 31}, []int{1 << 40} }), true},
		{"input size overflows", withArch(func(a *nn.ResNetConfig) { a.InH, a.InW = 1<<32, 1<<32 }), true},
		// 1×2³¹×2³¹ input values fit an int; the first stage's 4 channels of them do not.
		{"first stage activation overflows", withArch(func(a *nn.ResNetConfig) { a.InH, a.InW = 1<<31, 1<<31 }), true},
		{"header claims a huge network", func(*testing.T) *ReleasedModel {
			return &ReleasedModel{Arch: nn.ResNetConfig{InC: 1, InH: 8, InW: 8, Classes: 4, Widths: []int{16384}, Blocks: []int{1}}}
		}, true},
		{"classifier weight missing", func(t *testing.T) *ReleasedModel {
			rm := full(t)
			for i, b := range rm.Dense {
				if b.Name == "fc.w" {
					rm.Dense = append(rm.Dense[:i], rm.Dense[i+1:]...)
					return rm
				}
			}
			t.Fatal("no fc.w blob")
			return nil
		}, true},
		{"dense parameter set twice", func(t *testing.T) *ReleasedModel {
			// Same count, so only the names give it away: gamma is filled
			// twice and beta never.
			rm := full(t)
			for i, b := range rm.Dense {
				if b.Name == "stem.bn.beta" {
					rm.Dense[i].Name = "stem.bn.gamma"
				}
			}
			return rm
		}, false},
		{"quantized index out of range", func(t *testing.T) *ReleasedModel {
			rm := quantizedRelease(t, 42)
			qu := rm.Quantized[len(rm.Quantized)-1]
			qu.Indices[0][len(qu.Indices[0])-1] = uint8(len(qu.Levels))
			return rm
		}, true},
		{"codebook has 257 levels", func(t *testing.T) *ReleasedModel {
			rm := quantizedRelease(t, 43)
			rm.Quantized[0].Levels = make([]float64, 257)
			return rm
		}, true},
		{"quantized parameter set twice", func(t *testing.T) *ReleasedModel {
			rm := quantizedRelease(t, 41)
			for _, qu := range rm.Quantized {
				for pi, name := range qu.ParamNames {
					if name == "stage1.block0.conv2.w" {
						qu.ParamNames[pi] = "stage1.block0.conv1.w"
					}
				}
			}
			return rm
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rm := tc.build(t)
			raw := encodeRaw(t, rm)
			werr := Write(io.Discard, rm)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, rerr := Read(bytes.NewReader(raw))
			runtime.ReadMemStats(&after)
			if tc.readRejects {
				if !errors.Is(werr, ErrMalformed) || !errors.Is(rerr, ErrMalformed) {
					t.Fatalf("Write: %v; Read: %v; want ErrMalformed from both", werr, rerr)
				}
				if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
					t.Fatalf("Read allocated %d bytes of a %d-byte file before rejecting it", n, len(raw))
				}
				got = rm // Import validates too, for callers that skip Read.
			} else if werr != nil || rerr != nil {
				t.Fatalf("Write: %v; Read: %v; want both to accept", werr, rerr)
			}
			if _, _, err := Import(got); !errors.Is(err, ErrMalformed) {
				t.Fatalf("Import: %v, want ErrMalformed", err)
			}
			if len(got.Quantized) > 0 {
				if _, _, err := ImportNative(got); !errors.Is(err, ErrMalformed) {
					t.Fatalf("ImportNative: %v, want ErrMalformed", err)
				}
			}
		})
	}
}

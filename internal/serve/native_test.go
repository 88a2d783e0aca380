package serve

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/modelio"
	"repro/internal/quantize"
)

// TestNativeLoadBitIdenticalPredictions pins the registry-level acceptance
// criterion: a quantized release served codebook-native answers every
// request bit-identically to the same release served dequantized.
func TestNativeLoadBitIdenticalPredictions(t *testing.T) {
	path := writeReleased(t, 101, true)
	raw := fileBytes(t, path)

	reg := NewRegistry(testOpts(4, 64))
	defer reg.Close()
	deq, err := reg.LoadWithMode("deq", bytes.NewReader(raw), ModeDequantized)
	if err != nil {
		t.Fatal(err)
	}
	nat, err := reg.LoadWithMode("nat", bytes.NewReader(raw), ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	if deq.Native || !nat.Native {
		t.Fatalf("Native flags: deq=%v nat=%v", deq.Native, nat.Native)
	}
	if deq.Digest != nat.Digest {
		t.Fatal("same bytes produced different digests")
	}
	if deq.Params != nat.Params {
		t.Fatalf("param counts differ: %d vs %d", deq.Params, nat.Params)
	}

	for i, in := range testInputs(8, deq.Model().InputLen(), 102) {
		pd, err := predictOne(deq, in)
		if err != nil {
			t.Fatal(err)
		}
		pn, err := predictOne(nat, in)
		if err != nil {
			t.Fatal(err)
		}
		if pd.Class != pn.Class {
			t.Fatalf("input %d: classes differ: %d vs %d", i, pd.Class, pn.Class)
		}
		for j := range pd.Logits {
			if math.Float64bits(pd.Logits[j]) != math.Float64bits(pn.Logits[j]) {
				t.Fatalf("input %d logit %d: dequantized %v != native %v", i, j, pd.Logits[j], pn.Logits[j])
			}
		}
	}
}

func TestNativeLoadLowerResidentBytes(t *testing.T) {
	path := writeReleased(t, 103, true)
	raw := fileBytes(t, path)
	reg := NewRegistry(testOpts(4, 64))
	defer reg.Close()
	deq, err := reg.LoadWithMode("deq", bytes.NewReader(raw), ModeDequantized)
	if err != nil {
		t.Fatal(err)
	}
	nat, err := reg.LoadWithMode("nat", bytes.NewReader(raw), ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	dr, nr := deq.ResidentBytes(), nat.ResidentBytes()
	if nr >= dr {
		t.Fatalf("native resident %d bytes, dequantized %d — native must be strictly lower", nr, dr)
	}
}

func TestModeNativeRejectsFullPrecision(t *testing.T) {
	path := writeReleased(t, 104, false)
	reg := NewRegistry(testOpts(4, 64))
	defer reg.Close()
	if _, err := reg.LoadWithMode("fp", bytes.NewReader(fileBytes(t, path)), ModeNative); err == nil {
		t.Fatal("full-precision release accepted in ModeNative")
	}
}

func TestModeAutoFollowsNativeQuantOption(t *testing.T) {
	qraw := fileBytes(t, writeReleased(t, 105, true))
	fraw := fileBytes(t, writeReleased(t, 106, false))

	off := NewRegistry(testOpts(4, 64))
	defer off.Close()
	en, err := off.Load("q", bytes.NewReader(qraw))
	if err != nil {
		t.Fatal(err)
	}
	if en.Native {
		t.Fatal("NativeQuant off but quantized release loaded native")
	}

	opts := testOpts(4, 64)
	opts.NativeQuant = true
	on := NewRegistry(opts)
	defer on.Close()
	if en, err = on.Load("q", bytes.NewReader(qraw)); err != nil {
		t.Fatal(err)
	}
	if !en.Native {
		t.Fatal("NativeQuant on but quantized release loaded dequantized")
	}
	if en, err = on.Load("fp", bytes.NewReader(fraw)); err != nil {
		t.Fatal(err)
	}
	if en.Native {
		t.Fatal("full-precision release loaded native under NativeQuant")
	}
}

// TestNativeAuditModelMatchesDequantized pins the audit path: a native
// entry's AuditModel holds the same float weights a dequantized import
// does, even though the served model released its float storage.
func TestNativeAuditModelMatchesDequantized(t *testing.T) {
	path := writeReleased(t, 107, true)
	reg := NewRegistry(testOpts(4, 64))
	defer reg.Close()
	nat, err := reg.LoadWithMode("nat", bytes.NewReader(fileBytes(t, path)), ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	am, err := nat.AuditModel()
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceModel(t, path)
	refPs, amPs := ref.Params(), am.Params()
	if len(refPs) != len(amPs) {
		t.Fatalf("param counts differ: %d vs %d", len(refPs), len(amPs))
	}
	for i := range refPs {
		rd, ad := refPs[i].Value.Data(), amPs[i].Value.Data()
		if len(rd) != len(ad) {
			t.Fatalf("%s: lengths differ", refPs[i].Name)
		}
		for j := range rd {
			if math.Float64bits(rd[j]) != math.Float64bits(ad[j]) {
				t.Fatalf("%s[%d]: audit %v != reference %v", refPs[i].Name, j, ad[j], rd[j])
			}
		}
	}
}

// TestLoadDirSniffsMixedArtifacts pins the satellite: one directory mixing
// full-precision releases, quantized releases, bare quantization records,
// and junk loads exactly the servable models and reports the rest.
func TestLoadDirSniffsMixedArtifacts(t *testing.T) {
	dir := t.TempDir()
	cp := func(src, name string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), fileBytes(t, src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cp(writeReleased(t, 108, false), "full.bin")
	qpath := writeReleased(t, 109, true)
	cp(qpath, "quant.model") // extension is irrelevant; the header decides

	// A bare quantization record, written from the quantized release.
	rm, err := modelio.Load(qpath)
	if err != nil {
		t.Fatal(err)
	}
	_, applied, err := modelio.Import(rm)
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	if err := quantize.EncodeApplied(&rec, quantize.Snapshot(applied)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "record.qap"), rec.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}

	opts := testOpts(4, 64)
	opts.NativeQuant = true
	reg := NewRegistry(opts)
	defer reg.Close()
	entries, skipped, err := reg.LoadDir(dir, ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("loaded %d entries, want 2", len(entries))
	}
	byName := map[string]*Entry{}
	for _, en := range entries {
		byName[en.Name] = en
	}
	if en := byName["full"]; en == nil || en.Quantized || en.Native {
		t.Fatalf("full.bin entry wrong: %+v", en)
	}
	if en := byName["quant"]; en == nil || !en.Quantized || !en.Native {
		t.Fatalf("quant.model entry wrong: %+v", en)
	}
	if len(skipped) != 2 {
		t.Fatalf("skipped %d files, want 2: %+v", len(skipped), skipped)
	}
	for _, sk := range skipped {
		base := filepath.Base(sk.Path)
		if base != "record.qap" && base != "notes.txt" {
			t.Fatalf("unexpected skip: %+v", sk)
		}
	}
}

func TestLoadDirDuplicateNamesError(t *testing.T) {
	dir := t.TempDir()
	raw := fileBytes(t, writeReleased(t, 110, false))
	for _, name := range []string{"m.bin", "m.model"} {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg := NewRegistry(testOpts(4, 64))
	defer reg.Close()
	if _, _, err := reg.LoadDir(dir, ModeAuto); err == nil {
		t.Fatal("duplicate serving names accepted")
	}
}

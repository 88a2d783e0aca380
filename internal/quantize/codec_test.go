package quantize

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"testing"
)

// appliedFixture quantizes a real model and returns the model plus the
// live record and its snapshot.
func appliedFixture(t testing.TB) (*Applied, *AppliedBlob) {
	t.Helper()
	m := testModel(11)
	a := QuantizeModel(m, WeightedEntropy{}, 16)
	return a, Snapshot(a)
}

func encodeAppliedBytes(t testing.TB, blob *AppliedBlob) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeApplied(&buf, blob); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAppliedCodecRoundTripAndBind(t *testing.T) {
	a, blob := appliedFixture(t)
	got, err := DecodeApplied(bytes.NewReader(encodeAppliedBytes(t, blob)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Units) != len(a.Units) {
		t.Fatalf("units %d, want %d", len(got.Units), len(a.Units))
	}
	// Bind onto a FRESH (unquantized) model: every covered parameter must
	// come out bit-identical to the originally quantized one, and the
	// reconstructed record must drive Rewrite the same way.
	m2 := testModel(11)
	bound, err := got.Bind(m2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bound.Units) != len(a.Units) {
		t.Fatalf("bound units %d, want %d", len(bound.Units), len(a.Units))
	}
	for ui, u := range a.Units {
		b := bound.Units[ui]
		if u.Name != b.Name || u.Quantizer != b.Quantizer || u.Levels != b.Levels {
			t.Fatalf("unit %d metadata lost: %+v vs %+v", ui, u, b)
		}
		for i := range u.Book.Levels {
			if u.Book.Levels[i] != b.Book.Levels[i] {
				t.Fatalf("unit %d level %d not bit-exact", ui, i)
			}
		}
		for pi, p := range u.Params {
			bp := b.Params[pi]
			if p.Name != bp.Name {
				t.Fatalf("unit %d param %d: %q vs %q", ui, pi, p.Name, bp.Name)
			}
			for i, v := range p.Value.Data() {
				if bp.Value.Data()[i] != v {
					t.Fatalf("unit %d param %q value %d differs after bind", ui, p.Name, i)
				}
			}
			for i, k := range u.Assign[pi] {
				if b.Assign[pi][i] != k {
					t.Fatalf("unit %d param %q assignment %d differs", ui, p.Name, i)
				}
			}
		}
	}
	// The bound record must stay functional: nudging a centroid and
	// rewriting propagates to the rebound model's weights.
	bound.Units[0].Book.Levels[0] += 0.5
	bound.Rewrite()
	found := false
	for pi := range bound.Units[0].Params {
		for i, k := range bound.Units[0].Assign[pi] {
			if k == 0 {
				found = true
				if bound.Units[0].Params[pi].Value.Data()[i] != bound.Units[0].Book.Levels[0] {
					t.Fatal("rewrite on bound record did not update weights")
				}
			}
			_ = i
		}
	}
	if !found {
		t.Skip("no element assigned to cluster 0; fixture too small")
	}
}

func TestAppliedDecodeTruncatedFails(t *testing.T) {
	_, blob := appliedFixture(t)
	raw := encodeAppliedBytes(t, blob)
	for _, n := range []int{0, 3, len(appliedMagic), len(appliedMagic) + 5, len(raw) / 2, len(raw) - 1} {
		if _, err := DecodeApplied(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation at %d bytes: expected error", n)
		}
	}
	if _, err := DecodeApplied(bytes.NewReader(raw[:5])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("header truncation error = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestAppliedDecodeBadMagicFails(t *testing.T) {
	_, blob := appliedFixture(t)
	raw := encodeAppliedBytes(t, blob)
	raw[2] ^= 0xff
	if _, err := DecodeApplied(bytes.NewReader(raw)); !errors.Is(err, ErrBadApplied) {
		t.Fatalf("error = %v, want ErrBadApplied", err)
	}
}

func TestAppliedDecodeFlippedByteFails(t *testing.T) {
	_, blob := appliedFixture(t)
	raw := encodeAppliedBytes(t, blob)
	for _, off := range []int{len(appliedMagic) + 1, len(raw) / 3, 2 * len(raw) / 3} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x08
		rec, err := DecodeApplied(bytes.NewReader(mut))
		if err == nil && rec == nil {
			t.Fatalf("flip at %d: nil record without error", off)
		}
	}
}

func TestAppliedBindRejectsMismatch(t *testing.T) {
	_, blob := appliedFixture(t)
	m := testModel(11)

	unknown := *blob
	unknown.Units = append([]UnitBlob(nil), blob.Units...)
	unknown.Units[0].ParamNames = append([]string(nil), blob.Units[0].ParamNames...)
	unknown.Units[0].ParamNames[0] = "no.such.param"
	if _, err := unknown.Bind(m); err == nil {
		t.Fatal("unknown parameter accepted")
	}

	short := *blob
	short.Units = append([]UnitBlob(nil), blob.Units...)
	short.Units[0].Assign = append([][]int32(nil), blob.Units[0].Assign...)
	short.Units[0].Assign[0] = short.Units[0].Assign[0][:1]
	if _, err := short.Bind(testModel(11)); err == nil {
		t.Fatal("short assignment accepted")
	}

	oob := *blob
	oob.Units = append([]UnitBlob(nil), blob.Units...)
	oob.Units[0].Assign = append([][]int32(nil), blob.Units[0].Assign...)
	oob.Units[0].Assign[0] = append([]int32(nil), blob.Units[0].Assign[0]...)
	oob.Units[0].Assign[0][0] = int32(len(oob.Units[0].Levels))
	if _, err := oob.Bind(testModel(11)); err == nil {
		t.Fatal("out-of-range cluster index accepted")
	}
}

// TestCodebookBackendRejectsBadRecords feeds DecodeApplied and Bind the
// stored bytes of records whose codebook or indices cannot describe the
// model's weights: each must come back as an error from the first step
// that checks for it, never a panic or a half-bound record. Structural
// faults stop at DecodeApplied; an index past its codebook stops at Bind,
// where indices are read. EncodeApplied refuses
// these records, so the bytes are framed by hand, as a forged or damaged
// store entry would be. The uint8 view's 256-level cap belongs to the
// release format and is checked where releases are read (modelio).
func TestCodebookBackendRejectsBadRecords(t *testing.T) {
	for _, c := range []struct {
		name     string
		edit     func(*UnitBlob)
		atDecode bool
	}{
		{"empty codebook", func(u *UnitBlob) { u.Levels, u.Bounds = nil, []float64{math.Inf(1)} }, true},
		{"unnamed parameter", func(u *UnitBlob) { u.ParamNames[0] = "" }, true},
		{"parameter without indices", func(u *UnitBlob) { u.Assign[0] = []int32{} }, true},
		{"index out of range", func(u *UnitBlob) { u.Assign[0][0] = int32(len(u.Levels)) }, false},
	} {
		_, blob := appliedFixture(t)
		c.edit(&blob.Units[0])
		var buf bytes.Buffer
		buf.WriteString(appliedMagic)
		if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
			t.Fatal(err)
		}
		rec, err := DecodeApplied(&buf)
		if c.atDecode {
			if err == nil {
				t.Fatalf("%s: DecodeApplied accepted the record", c.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: DecodeApplied: %v", c.name, err)
		}
		if a, err := rec.Bind(testModel(11)); err == nil || a != nil {
			t.Fatalf("%s: Bind accepted the record", c.name)
		}
	}
}

func TestEncodeAppliedRejectsInconsistent(t *testing.T) {
	_, blob := appliedFixture(t)
	blob.Units[0].Assign = blob.Units[0].Assign[:len(blob.Units[0].Assign)-1]
	if err := EncodeApplied(io.Discard, blob); err == nil {
		t.Fatal("names/assignments mismatch accepted")
	}
	_, blob2 := appliedFixture(t)
	blob2.Units[0].Bounds = blob2.Units[0].Bounds[:1]
	if err := EncodeApplied(io.Discard, blob2); err == nil {
		t.Fatal("malformed codebook accepted")
	}
}

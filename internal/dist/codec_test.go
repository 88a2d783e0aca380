package dist

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

func samplePartial() *Partial {
	return &Partial{
		Token: "run-token", Epoch: 3, Step: 7, Shard: 2,
		Loss:      0.125,
		Grad:      []float64{1.5, -2.25, 0, 3.75},
		BNMoments: []float64{0.5, 0.25},
	}
}

func TestPartialCodecRoundTrip(t *testing.T) {
	p := samplePartial()
	raw, err := EncodePartial(p)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodePartial(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Token != p.Token || got.Epoch != p.Epoch || got.Step != p.Step || got.Shard != p.Shard || got.Loss != p.Loss {
		t.Fatalf("round trip mismatch: %+v != %+v", got, p)
	}
	for i, v := range p.Grad {
		if got.Grad[i] != v {
			t.Fatalf("Grad[%d] = %v, want %v", i, got.Grad[i], v)
		}
	}
	for i, v := range p.BNMoments {
		if got.BNMoments[i] != v {
			t.Fatalf("BNMoments[%d] = %v, want %v", i, got.BNMoments[i], v)
		}
	}
}

func TestPartialCodecRejectsCorruption(t *testing.T) {
	good, err := EncodePartial(samplePartial())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	// Flip one payload byte: the digest check must reject it before gob
	// ever parses the bytes.
	raw := append([]byte(nil), good...)
	raw[len(raw)-1] ^= 0x40
	if _, err := DecodePartial(raw); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("corrupted payload: err = %v, want digest mismatch", err)
	}

	// Wrong magic: a control message is not a partial.
	ctlRaw, err := encodeFramed(ctlMagic, &ctl{Kind: "begin", Manifest: Manifest{Token: "x"}})
	if err != nil {
		t.Fatalf("encode ctl: %v", err)
	}
	if _, err := DecodePartial(ctlRaw); !errors.Is(err, ErrBadPartial) {
		t.Fatalf("ctl bytes as partial: err = %v, want ErrBadPartial", err)
	}

	// Truncation.
	if _, err := DecodePartial(good[:10]); err == nil {
		t.Fatal("truncated stream decoded without error")
	}
}

func TestPartialCodecRejectsInvalid(t *testing.T) {
	cases := []*Partial{
		{Token: "", Epoch: 0, Step: 0, Shard: 0, Grad: []float64{1}},
		{Token: "t", Epoch: -1, Step: 0, Shard: 0, Grad: []float64{1}},
		{Token: "t", Epoch: 0, Step: 0, Shard: 0, Grad: nil},
	}
	for i, p := range cases {
		if _, err := EncodePartial(p); err == nil {
			t.Fatalf("case %d: invalid partial encoded without error", i)
		}
	}
}

func TestCtlCodecRoundTrip(t *testing.T) {
	man := Manifest{
		Token: "run-token", Procs: 4, Shards: 4, BatchSize: 32,
		Steps: 10, Epochs: 25, StartEpoch: 5, ParamCount: 12345,
	}
	raw, err := encodeFramed(ctlMagic, &ctl{Kind: "begin", Manifest: man})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	c, err := decodeCtl(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if c.Kind != "begin" || c.Manifest != man {
		t.Fatalf("round trip mismatch: %+v", c)
	}

	bad, err := encodeFramed(ctlMagic, "not a ctl")
	if err != nil {
		t.Fatalf("encode framed: %v", err)
	}
	if _, err := decodeCtl(bad); err == nil {
		t.Fatal("malformed ctl payload decoded without error")
	}
	if _, err := decodeCtl(raw[:4]); err == nil {
		t.Fatal("truncated ctl decoded without error")
	}
}

// The partial frame bound must hold the largest encoding a partial of the
// manifest's sizes can have: gob spends its full 9 bytes on every float
// here, and on every position field.
func TestMaxPartialFrameHoldsWorstCase(t *testing.T) {
	man := Manifest{Token: strings.Repeat("f", 64), ParamCount: 5000, Moments: 96}
	p := &Partial{
		Token: man.Token, Epoch: math.MaxInt64, Step: math.MaxInt64, Shard: math.MaxInt64,
		Loss: -math.MaxFloat64,
		Grad: make([]float64, man.ParamCount), BNMoments: make([]float64, man.Moments),
	}
	for i := range p.Grad {
		p.Grad[i] = -math.MaxFloat64
	}
	for i := range p.BNMoments {
		p.BNMoments[i] = -math.MaxFloat64
	}
	raw, err := EncodePartial(p)
	if err != nil {
		t.Fatal(err)
	}
	if max := maxPartialFrame(&man); len(raw) > max {
		t.Fatalf("worst-case partial encodes to %d bytes, bound is %d", len(raw), max)
	}
}

func TestFrameRoundTripAndBound(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrames(&buf, []byte("abc"), nil, []byte("defg")); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"abc", "", "defg"} {
		got, err := readFrame(&buf, 4)
		if err != nil || string(got) != want {
			t.Fatalf("readFrame = %q, %v; want %q", got, err, want)
		}
	}
	if _, err := readFrame(&buf, 4); err != io.EOF {
		t.Fatalf("read past the last frame: err = %v, want io.EOF", err)
	}

	// A prefix over the bound is refused on the prefix alone: no body
	// follows it here, so reading one would fail differently.
	if _, err := readFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}), 1<<20); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversize prefix: err = %v, want errFrameTooLarge", err)
	}
	if _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 5, 'a'}), 8); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated body: err = %v, want truncated", err)
	}
}

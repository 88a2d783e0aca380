package dist

// Fuzz targets for the bytes a session reads from its socket peers. Plain
// go test runs each seed corpus; make fuzz-short fuzzes each target for
// 10 s (go test -fuzz takes one target per invocation).

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"
)

// withDigest wraps payload in magic + digest, so the fuzzer reaches the gob
// decoder instead of stopping at the digest check.
func withDigest(magic string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append(append([]byte(magic), sum[:]...), payload...)
}

// roundTrip checks that a decoded value re-encodes to bytes that decode
// to a value encoding to the same bytes: decode→encode→decode is stable.
func roundTrip[T any](t *testing.T, v T, enc func(T) ([]byte, error), dec func([]byte) (T, error)) {
	b1, err := enc(v)
	if err != nil {
		t.Fatalf("re-encode a decoded value: %v", err)
	}
	v2, err := dec(b1)
	if err != nil {
		t.Fatalf("decode a re-encoded value: %v", err)
	}
	b2, err := enc(v2)
	if err != nil || !bytes.Equal(b1, b2) {
		t.Fatalf("decode→encode→decode is not stable (%v)", err)
	}
}

func FuzzDecodePartial(f *testing.F) {
	good, err := EncodePartial(samplePartial())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[len(partialMagic)+sha256.Size:]) // the gob payload alone
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, withDigest(partialMagic, b)} {
			if p, err := DecodePartial(in); err == nil {
				roundTrip(t, p, EncodePartial, DecodePartial)
			}
		}
	})
}

func FuzzDecodeCtl(f *testing.F) {
	man := Manifest{Token: "run-token", Procs: 2, Shards: 2, BatchSize: 8, Steps: 3, Epochs: 2, ParamCount: 4, Moments: 2}
	for _, c := range []*ctl{{Kind: "begin", Manifest: man}, {Kind: "complete", Manifest: Manifest{Token: "run-token"}}} {
		good, err := encodeFramed(ctlMagic, c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(good)
		f.Add(good[len(ctlMagic)+sha256.Size:])
	}
	enc := func(c *ctl) ([]byte, error) { return encodeFramed(ctlMagic, c) }
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, withDigest(ctlMagic, b)} {
			if c, err := decodeCtl(in); err == nil {
				roundTrip(t, c, enc, decodeCtl)
			}
		}
	})
}

// FuzzReadFrame reads frames until the input runs out. A frame is returned
// only within the reader's bound and re-encodes to exactly the bytes read;
// a length prefix over the bound is refused on the prefix alone.
func FuzzReadFrame(f *testing.F) {
	good, err := EncodePartial(samplePartial())
	if err != nil {
		f.Fatal(err)
	}
	var framed bytes.Buffer
	if err := writeFrames(&framed, good, []byte("x")); err != nil {
		f.Fatal(err)
	}
	f.Add(framed.Bytes(), uint16(len(good)))
	f.Add(framed.Bytes(), uint16(len(good)-1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint16(maxCtlFrame))
	f.Fuzz(func(t *testing.T, data []byte, bound uint16) {
		r := bytes.NewReader(data)
		for {
			at := len(data) - r.Len()
			body, err := readFrame(r, int(bound))
			if err != nil {
				if rest := data[at:]; len(rest) >= 4 && binary.BigEndian.Uint32(rest) > uint32(bound) && !errors.Is(err, errFrameTooLarge) {
					t.Fatalf("prefix %d over bound %d: err = %v, want errFrameTooLarge", binary.BigEndian.Uint32(rest), bound, err)
				}
				return
			}
			var again bytes.Buffer
			if err := writeFrames(&again, body); err != nil {
				t.Fatal(err)
			}
			if len(body) > int(bound) || !bytes.Equal(again.Bytes(), data[at:len(data)-r.Len()]) {
				t.Fatalf("frame of %d bytes (bound %d) does not re-encode to the bytes read", len(body), bound)
			}
		}
	})
}

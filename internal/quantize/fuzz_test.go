package quantize

import (
	"bytes"
	"testing"
)

// FuzzDecodeApplied feeds arbitrary bytes to the quantization-record
// (DACQAP1) decoder: it must never panic, and a record it accepts must
// re-encode to bytes that decode and re-encode identically.
func FuzzDecodeApplied(f *testing.F) {
	_, blob := appliedFixture(f)
	f.Add(encodeAppliedBytes(f, blob))
	f.Add(encodeAppliedBytes(f, &AppliedBlob{}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		blob, err := DecodeApplied(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var a, b bytes.Buffer
		if err := EncodeApplied(&a, blob); err != nil {
			t.Fatalf("EncodeApplied of an accepted record: %v", err)
		}
		again, err := DecodeApplied(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("DecodeApplied of a re-encoded record: %v", err)
		}
		if err := EncodeApplied(&b, again); err != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("Encode→Decode→Encode is not stable (%v)", err)
		}
	})
}

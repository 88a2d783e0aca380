package train

import (
	"bytes"
	"testing"
)

// FuzzDecodeCheckpoint feeds arbitrary bytes to the training-checkpoint
// (DACCKP1) decoder: it must never panic, and a checkpoint it accepts
// must re-encode to bytes that decode and re-encode identically.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add(encodeCk(f, captureSmall(f)))
	f.Fuzz(func(t *testing.T, raw []byte) {
		ck, err := DecodeCheckpoint(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var a, b bytes.Buffer
		if err := EncodeCheckpoint(&a, ck); err != nil {
			t.Fatalf("EncodeCheckpoint of an accepted checkpoint: %v", err)
		}
		again, err := DecodeCheckpoint(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("DecodeCheckpoint of a re-encoded checkpoint: %v", err)
		}
		if err := EncodeCheckpoint(&b, again); err != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("Encode→Decode→Encode is not stable (%v)", err)
		}
	})
}

package modelio

import (
	"bytes"
	"testing"
)

// FuzzRead feeds Read the bytes of a release file from an outside party.
// Whatever Read accepts must import without a panic (natively too when it
// is quantized), and a Write→Read→Write of it must reproduce its bytes.
func FuzzRead(f *testing.F) {
	full, err := Export(trainedish(50), arch(), nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, rm := range []*ReleasedModel{full, quantizedRelease(f, 51)} {
		var buf bytes.Buffer
		if err := Write(&buf, rm); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		rm, err := Read(bytes.NewReader(raw))
		if err != nil {
			return
		}
		// An accepted release may still fail to import, but not by panicking.
		_, _, _ = Import(rm)
		if len(rm.Quantized) > 0 {
			_, _, _ = ImportNative(rm)
		}
		var a, b bytes.Buffer
		if err := Write(&a, rm); err != nil {
			t.Fatalf("Write of an accepted release: %v", err)
		}
		again, err := Read(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("Read of a rewritten release: %v", err)
		}
		if err := Write(&b, again); err != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("Write→Read→Write is not stable (%v)", err)
		}
	})
}

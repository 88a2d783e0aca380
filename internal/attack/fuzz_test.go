package attack

import (
	"bytes"
	"io"
	"testing"
)

// stableCodec checks that a value a decoder accepted re-encodes to bytes
// that decode and re-encode identically.
func stableCodec[T any](t *testing.T, v T, write func(io.Writer, T) error, read func(io.Reader) (T, error)) {
	t.Helper()
	var a, b bytes.Buffer
	if err := write(&a, v); err != nil {
		t.Fatalf("write of an accepted value: %v", err)
	}
	again, err := read(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("read of a rewritten value: %v", err)
	}
	if err := write(&b, again); err != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("write→read→write is not stable (%v)", err)
	}
}

// FuzzReadPlan feeds arbitrary bytes to the attack-plan (DACPLN1) reader:
// no panic, and what it accepts round-trips to identical bytes.
func FuzzReadPlan(f *testing.F) {
	f.Add(encodePlanBytes(f, planFixture(f)))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if p, err := ReadPlan(bytes.NewReader(raw)); err == nil {
			stableCodec(t, p, WritePlan, ReadPlan)
		}
	})
}

// FuzzReadReport feeds arbitrary bytes to the attack-report (DACRPT1)
// reader: no panic, and what it accepts round-trips to identical bytes.
func FuzzReadReport(f *testing.F) {
	f.Add(encodeReportBytes(f, reportFixture()))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if rep, err := ReadReport(bytes.NewReader(raw)); err == nil {
			stableCodec(t, rep, WriteReport, ReadReport)
		}
	})
}

package artifact

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"testing"
)

type testRecord struct {
	N      int
	Values []float64
}

var errBadTest = errors.New("test: bad magic")

var testCodec = Codec[testRecord]{
	Magic: "DACTST1\n", Name: "test: record", BadMagic: errBadTest,
	Check: func(r *testRecord) error {
		if r.N != len(r.Values) {
			return fmt.Errorf("test: %d values, want %d", len(r.Values), r.N)
		}
		return nil
	},
}

func encodeTest(t *testing.T, r *testRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := testCodec.Write(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCodecRoundTrip(t *testing.T) {
	raw := encodeTest(t, &testRecord{N: 2, Values: []float64{1.5, -0.25}})
	if !bytes.HasPrefix(raw, []byte(testCodec.Magic)) {
		t.Fatalf("stream starts %q, want the magic", raw[:8])
	}
	if !testCodec.Is(bytes.NewReader(raw)) {
		t.Fatal("Is rejects the codec's own stream")
	}
	got, err := testCodec.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 2 || got.Values[0] != 1.5 || got.Values[1] != -0.25 {
		t.Fatalf("round trip gave %+v", got)
	}
}

func TestCodecRejectsDamage(t *testing.T) {
	raw := encodeTest(t, &testRecord{N: 1, Values: []float64{3}})
	for _, n := range []int{0, 5, len(raw) - 1} {
		if _, err := testCodec.Read(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation at %d bytes accepted", n)
		}
	}
	if _, err := testCodec.Read(bytes.NewReader(raw[:5])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short header: %v, want io.ErrUnexpectedEOF", err)
	}
	foreign := append([]byte("DACXXX1\n"), raw[8:]...)
	if _, err := testCodec.Read(bytes.NewReader(foreign)); !errors.Is(err, errBadTest) {
		t.Fatalf("foreign header: %v, want BadMagic", err)
	}
	for _, r := range [][]byte{foreign, raw[:5]} {
		if testCodec.Is(bytes.NewReader(r)) {
			t.Fatalf("Is accepts %q", r)
		}
	}
}

// Check runs on both ends: Write refuses an inconsistent value before
// writing a byte, and Read refuses one another writer encoded.
func TestCodecChecksBothEnds(t *testing.T) {
	bad := &testRecord{N: 3, Values: []float64{1}}
	var buf bytes.Buffer
	if err := testCodec.Write(&buf, bad); err == nil || buf.Len() != 0 {
		t.Fatalf("Write of an inconsistent value: err %v, %d bytes written", err, buf.Len())
	}
	buf.WriteString(testCodec.Magic)
	if err := gob.NewEncoder(&buf).Encode(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := testCodec.Read(&buf); err == nil {
		t.Fatal("Read accepted an inconsistent value")
	}
}

func TestLoad(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := key("load")
	if _, err := Load(s, "rec", k, testCodec.Read); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing entry: %v, want fs.ErrNotExist", err)
	}
	if err := s.Put("rec", k, func(w io.Writer) error {
		return testCodec.Write(w, &testRecord{N: 1, Values: []float64{7}})
	}); err != nil {
		t.Fatal(err)
	}
	got, err := Load(s, "rec", k, testCodec.Read)
	if err != nil || got.Values[0] != 7 {
		t.Fatalf("Load = %+v, %v", got, err)
	}
	// A present but unreadable entry is an error other than a miss, which
	// is what tells a caller to evict it.
	torn := key("torn")
	if err := s.Put("rec", torn, func(w io.Writer) error {
		_, err := io.WriteString(w, "DAC")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(s, "rec", torn, testCodec.Read); err == nil || errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("torn entry: %v, want a decode error", err)
	}
	// Only the good entry decoded: the torn one is a miss, like the absent.
	if st := s.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats %+v, want 1 hit and 2 misses", st)
	}
}

package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"testing"
)

func TestRegistryLoadFile(t *testing.T) {
	path := writeReleased(t, 30, true)
	r := NewRegistry(testOpts(4, 16))
	defer r.Close()

	en, err := r.LoadFile("demo", path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(fileBytes(t, path))
	if en.Digest != hex.EncodeToString(sum[:]) {
		t.Fatalf("digest %s does not hash the file bytes", en.Digest)
	}
	if !en.Quantized {
		t.Fatal("quantized release not flagged")
	}
	if en.Size.TotalBytes() >= en.Size.RawBytes {
		t.Fatalf("quantized size report not compressed: %+v", en.Size)
	}
	got, ok := r.Get("demo")
	if !ok || got != en {
		t.Fatal("Get did not return the loaded entry")
	}
	if list := r.List(); len(list) != 1 || list[0].Name != "demo" {
		t.Fatalf("List = %v", list)
	}
}

func TestRegistryRejectsCorruptFile(t *testing.T) {
	path := writeReleased(t, 31, false)
	raw := fileBytes(t, path)
	r := NewRegistry(testOpts(4, 16))
	defer r.Close()
	if _, err := r.Load("bad", strings.NewReader(string(raw[:len(raw)/2]))); err == nil {
		t.Fatal("expected error for truncated file")
	}
	if _, err := r.Load("bad", strings.NewReader("junk")); err == nil {
		t.Fatal("expected error for junk file")
	}
	if _, err := r.Load("", strings.NewReader(string(raw))); err == nil {
		t.Fatal("expected error for empty name")
	}
	if len(r.List()) != 0 {
		t.Fatal("failed loads left entries behind")
	}
}

// Hot reload swaps the serving model atomically: the old engine drains and
// rejects later submissions, the new one answers with the new weights.
func TestRegistryHotReload(t *testing.T) {
	pathA := writeReleased(t, 32, false)
	pathB := writeReleased(t, 33, true)
	r := NewRegistry(testOpts(4, 16))
	defer r.Close()

	enA, err := r.LoadFile("demo", pathA)
	if err != nil {
		t.Fatal(err)
	}
	enB, err := r.LoadFile("demo", pathB)
	if err != nil {
		t.Fatal(err)
	}
	if enA.Digest == enB.Digest {
		t.Fatal("distinct releases share a digest")
	}
	if got, _ := r.Get("demo"); got != enB {
		t.Fatal("Get did not return the reloaded entry")
	}
	if len(r.List()) != 1 {
		t.Fatalf("reload duplicated the entry: %v", r.List())
	}

	// The old engine was drained and closed by the swap.
	in := testInputs(1, enB.Model().InputLen(), 40)[0]
	if _, err := predictOne(enA, in); !errors.Is(err, ErrClosed) {
		t.Fatalf("old entry err = %v, want ErrClosed", err)
	}

	// The new engine serves the new weights: compare against an offline
	// import of the same file.
	ref := referenceModel(t, pathB)
	want, err := ref.EvalBatch([][]float64{in})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := predictOne(enB, in)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range pred.Logits {
		if v != want[0][j] {
			t.Fatalf("reloaded logit %d: %v != %v", j, v, want[0][j])
		}
	}
}

func TestRegistryRemoveAndClose(t *testing.T) {
	path := writeReleased(t, 34, false)
	r := NewRegistry(testOpts(4, 16))
	en, err := r.LoadFile("demo", path)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Remove("demo") {
		t.Fatal("Remove reported no entry")
	}
	if r.Remove("demo") {
		t.Fatal("second Remove reported an entry")
	}
	if _, err := predictOne(en, testInputs(1, en.Model().InputLen(), 41)[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("removed entry err = %v, want ErrClosed", err)
	}
	r.Close()
	if _, err := r.LoadFile("late", path); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close load err = %v, want ErrClosed", err)
	}
}

// Loading byte-identical files under different names yields the same
// digest — the content hash is the identity, the name is just routing.
func TestRegistryDigestKeyedByContent(t *testing.T) {
	path := writeReleased(t, 35, true)
	r := NewRegistry(testOpts(4, 16))
	defer r.Close()
	a, err := r.LoadFile("a", path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.LoadFile("b", path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("same file, different digests: %s vs %s", a.Digest, b.Digest)
	}
}

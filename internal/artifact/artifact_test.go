package artifact

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func key(parts ...string) string {
	k := NewKey("test/v1")
	for i, p := range parts {
		k.Str("p", p)
		_ = i
	}
	return k.Sum()
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := key("a")
	payload := []byte("hello artifact")
	if s.Has("ckpt", k) {
		t.Fatal("fresh store has artifact")
	}
	if err := s.Put("ckpt", k, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !s.Has("ckpt", k) {
		t.Fatal("Put did not publish")
	}
	got, err := Load(s, "ckpt", k, readAll)
	if err != nil || string(*got) != string(payload) {
		t.Fatalf("round trip: %v, %v", got, err)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats %+v, want 1 hit", st)
	}
	if st.ReadBytes != int64(len(payload)) || st.WriteBytes != int64(len(payload)) {
		t.Fatalf("byte counters %+v, want %d each", st, len(payload))
	}
}

// readAll is a Load read function that accepts any bytes.
func readAll(r io.Reader) (*[]byte, error) {
	b, err := io.ReadAll(r)
	return &b, err
}

// TestGetMissingCountsMiss: an absent entry's error wraps fs.ErrNotExist
// from Get and from Load, and only the Load counts, as one miss.
func TestGetMissingCountsMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Get("ckpt", key("missing"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Get error %v does not wrap fs.ErrNotExist", err)
	}
	_, err = Load(s, "ckpt", key("missing"), readAll)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Load error %v does not wrap fs.ErrNotExist", err)
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats %+v, want 1 miss", st)
	}
}

func TestFailedPutLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := key("fail")
	boom := errors.New("boom")
	err = s.Put("ckpt", k, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Put error = %v, want wrapped boom", err)
	}
	if s.Has("ckpt", k) {
		t.Fatal("failed Put published an artifact")
	}
	// The temp file must be cleaned up too.
	entries, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("tmp dir not clean: %v", entries)
	}
	if st := s.Stats(); st.WriteBytes != 0 {
		t.Fatalf("failed Put counted %d write bytes", st.WriteBytes)
	}
}

func TestHasDoesNotCount(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Has("ckpt", key("probe"))
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Has touched counters: %+v", st)
	}
}

func TestDeleteEvicts(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := key("evict")
	if err := s.Put("plan", k, func(w io.Writer) error {
		_, err := w.Write([]byte("x"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("plan", k); err != nil {
		t.Fatal(err)
	}
	if s.Has("plan", k) {
		t.Fatal("Delete left artifact")
	}
	if err := s.Delete("plan", k); err != nil {
		t.Fatalf("double delete: %v", err)
	}
}

func TestBadKindAndKeyRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	good := key("x")
	for _, kind := range []string{"", "CKPT", "a/b", "a.b"} {
		if err := s.Put(kind, good, func(io.Writer) error { return nil }); err == nil {
			t.Fatalf("kind %q accepted", kind)
		}
	}
	for _, k := range []string{"", "short", strings.Repeat("Z", 20), "../../../../etc/passwd"} {
		if err := s.Put("ckpt", k, func(io.Writer) error { return nil }); err == nil {
			t.Fatalf("key %q accepted", k)
		}
		if s.Has("ckpt", k) {
			t.Fatalf("Has(%q) true", k)
		}
	}
}

func TestKeyDeterministicAndSensitive(t *testing.T) {
	mk := func() *Key {
		return NewKey("train/v1").
			Int("epochs", 25).
			Float("lr", 0.05).
			Ints("bounds", []int{5, 9}).
			Floats("lambdas", []float64{0, 0, 10}).
			Str("dep", "abc").
			Bool("keepreg", true)
	}
	a, b := mk().Sum(), mk().Sum()
	if a != b {
		t.Fatalf("same inputs, different keys: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("key %q not a hex sha-256", a)
	}
	variants := []*Key{
		NewKey("train/v2").Int("epochs", 25),
		NewKey("train/v1").Int("epochs", 26),
		NewKey("train/v1").Int("epoch", 25),
		NewKey("train/v1").Float("epochs", 25),
		NewKey("train/v1").Ints("epochs", []int{25}),
	}
	seen := map[string]bool{a: true}
	for i, v := range variants {
		s := v.Sum()
		if seen[s] {
			t.Fatalf("variant %d collides", i)
		}
		seen[s] = true
	}
	// Slice boundaries must be unambiguous: [1,2]+[3] != [1]+[2,3].
	x := NewKey("k").Ints("a", []int{1, 2}).Ints("b", []int{3}).Sum()
	y := NewKey("k").Ints("a", []int{1}).Ints("b", []int{2, 3}).Sum()
	if x == y {
		t.Fatal("slice encoding ambiguous")
	}
}

func TestKeysListsSorted(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Empty kind (directory does not exist yet) is an empty list, not an
	// error.
	if ks, err := s.Keys("release"); err != nil || len(ks) != 0 {
		t.Fatalf("fresh Keys = %v, %v", ks, err)
	}
	want := []string{key("a"), key("b"), key("c")}
	for _, k := range want {
		if err := s.Put("release", k, func(w io.Writer) error {
			_, err := w.Write([]byte(k))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	// A stray non-artifact file in a shard directory is ignored.
	shard := filepath.Join(s.Root(), "release", want[0][:2])
	if err := os.WriteFile(filepath.Join(shard, "junk.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)
	ks, err := s.Keys("release")
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != len(want) {
		t.Fatalf("Keys = %v, want %v", ks, want)
	}
	for i := range want {
		if ks[i] != want[i] {
			t.Fatalf("Keys[%d] = %s, want %s", i, ks[i], want[i])
		}
	}
	// Keys tracks deletes and other kinds stay isolated.
	if err := s.Delete("release", want[1]); err != nil {
		t.Fatal(err)
	}
	if ks, _ := s.Keys("release"); len(ks) != 2 {
		t.Fatalf("Keys after delete = %v", ks)
	}
	if ks, _ := s.Keys("ckpt"); len(ks) != 0 {
		t.Fatalf("other kind sees keys: %v", ks)
	}
	// Invalid kind is rejected.
	if _, err := s.Keys("no/slashes"); err == nil {
		t.Fatal("invalid kind accepted")
	}
}

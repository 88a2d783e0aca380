package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/obs"
)

func testStore(t testing.TB) *artifact.Store {
	t.Helper()
	store, err := artifact.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func TestPublishReleaseAndLoadDigest(t *testing.T) {
	store := testStore(t)
	path := writeReleased(t, 40, true)
	digest, err := PublishReleaseFile(store, path)
	if err != nil {
		t.Fatal(err)
	}
	// The published key is the file's own content hash.
	raw := fileBytes(t, path)
	if !store.Has(ReleaseKind, digest) {
		t.Fatal("published release not in store")
	}
	// Publishing again is an idempotent no-op.
	if again, err := PublishRelease(store, bytes.NewReader(raw)); err != nil || again != digest {
		t.Fatalf("republish: digest %s err %v", again, err)
	}

	r := NewRegistry(Options{MaxBatch: 4, QueueDepth: 16, Threads: 1, Store: store})
	defer r.Close()
	en, err := r.LoadDigest("prod", digest, ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if en.Digest != digest {
		t.Fatalf("entry digest %s != requested %s", en.Digest, digest)
	}
	// A digest-pulled model answers bit-identically to the file-loaded one.
	ref := referenceModel(t, path)
	in := testInputs(1, ref.InputLen(), 41)[0]
	want, err := ref.EvalBatch([][]float64{in})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := predictOne(en, in)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range pred.Logits {
		if v != want[0][j] {
			t.Errorf("logit %d: %v != %v", j, v, want[0][j])
		}
	}
}

func TestPublishReleaseRejectsGarbage(t *testing.T) {
	store := testStore(t)
	if _, err := PublishRelease(store, strings.NewReader("not a release")); err == nil {
		t.Fatal("garbage published as a release")
	}
	if keys, _ := store.Keys(ReleaseKind); len(keys) != 0 {
		t.Fatalf("store has %d releases after rejected publish", len(keys))
	}
}

func TestLoadDigestErrors(t *testing.T) {
	store := testStore(t)
	digest, err := PublishReleaseFile(store, writeReleased(t, 42, false))
	if err != nil {
		t.Fatal(err)
	}

	// No store attached.
	r := NewRegistry(Options{Threads: 1})
	defer r.Close()
	if _, err := r.LoadDigest("prod", digest, ModeAuto); !IsNoStore(err) {
		t.Fatalf("no-store load error = %v, want ErrNoStore", err)
	}

	// Unknown digest: the error names what is available.
	rs := NewRegistry(Options{Threads: 1, Store: store})
	defer rs.Close()
	missing := strings.Repeat("ab", 32)
	_, err = rs.LoadDigest("prod", missing, ModeAuto)
	if err == nil {
		t.Fatal("unknown digest loaded")
	}
	if !strings.Contains(err.Error(), digest[:12]) {
		t.Fatalf("missing-digest error does not list available releases: %v", err)
	}

	// Corrupt store entry: load fails and the entry is evicted.
	bad := strings.Repeat("cd", 32)
	if err := store.Put(ReleaseKind, bad, func(w io.Writer) error {
		_, err := w.Write([]byte("garbage bytes"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	before := store.Stats()
	if _, err := rs.LoadDigest("prod", bad, ModeAuto); err == nil {
		t.Fatal("corrupt entry loaded")
	}
	if store.Has(ReleaseKind, bad) {
		t.Fatal("corrupt entry not evicted")
	}
	if after := store.Stats(); after.Hits != before.Hits || after.Misses != before.Misses+1 {
		t.Fatalf("corrupt load moved stats %+v to %+v, want one more miss", before, after)
	}

	// Mis-keyed entry (valid release under the wrong digest): rejected and
	// evicted — the digest contract is what makes fleet-wide byte-identity
	// provable, so a wrong key must never load.
	wrongKey := strings.Repeat("ef", 32)
	raw := fileBytes(t, writeReleased(t, 43, false))
	if err := store.Put(ReleaseKind, wrongKey, func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.LoadDigest("prod", wrongKey, ModeAuto); err == nil || !strings.Contains(err.Error(), "hashes to") {
		t.Fatalf("mis-keyed entry error = %v", err)
	}
	if store.Has(ReleaseKind, wrongKey) {
		t.Fatal("mis-keyed entry not evicted")
	}
}

// IsNoStore reports whether err wraps ErrNoStore (test readability).
func IsNoStore(err error) bool {
	return err != nil && strings.Contains(err.Error(), ErrNoStore.Error())
}

func TestHTTPLoadByDigest(t *testing.T) {
	store := testStore(t)
	path := writeReleased(t, 44, true)
	digest, err := PublishReleaseFile(store, path)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxBatch: 4, QueueDepth: 16, Threads: 1, Store: store}
	_, ts := httpServer(t, opts)

	status, body := postJSON(t, ts.URL+"/v1/models/prod:load", loadRequest{Digest: digest})
	if status != http.StatusOK {
		t.Fatalf("load status %d: %s", status, body["error"])
	}
	var info modelInfo
	raw, _ := json.Marshal(body)
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "prod" || info.Digest != digest || !info.Quantized {
		t.Fatalf("load answered %+v", info)
	}

	// The loaded model serves.
	ref := referenceModel(t, path)
	in := testInputs(1, ref.InputLen(), 45)[0]
	if status, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "prod", Input: in}); status != http.StatusOK {
		t.Fatalf("predict after digest load: %d (%s)", status, body["error"])
	}

	// Unknown digest → 404; empty digest → 400.
	if status, _ := postJSON(t, ts.URL+"/v1/models/prod:load", loadRequest{Digest: strings.Repeat("09", 32)}); status != http.StatusNotFound {
		t.Fatalf("unknown digest status %d, want 404", status)
	}
	if status, _ := postJSON(t, ts.URL+"/v1/models/prod:load", loadRequest{}); status != http.StatusBadRequest {
		t.Fatalf("empty digest status %d, want 400", status)
	}

	// No store attached → 501.
	_, tsNoStore := httpServer(t, Options{MaxBatch: 4, QueueDepth: 16, Threads: 1})
	if status, _ := postJSON(t, tsNoStore.URL+"/v1/models/prod:load", loadRequest{Digest: digest}); status != http.StatusNotImplemented {
		t.Fatalf("no-store load status %d, want 501", status)
	}
}

func TestHTTPReadyzLifecycle(t *testing.T) {
	opts := Options{MaxBatch: 4, QueueDepth: 16, Threads: 1}
	r := NewRegistry(opts)
	defer r.Close()
	srv := NewServer(r, nil)
	// Not ready while starting (initial loads still running)...
	req := func() int {
		rec := newRecorder()
		srv.Handler().ServeHTTP(rec, getReq("/readyz"))
		return rec.status
	}
	if got := req(); got != http.StatusServiceUnavailable {
		t.Fatalf("starting readyz = %d, want 503", got)
	}
	// ...ready once loads complete...
	srv.SetReady()
	if got := req(); got != http.StatusOK {
		t.Fatalf("ready readyz = %d, want 200", got)
	}
	// ...and not ready again during drain, while healthz stays 200 (alive).
	srv.StartDrain()
	if got := req(); got != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", got)
	}
	rec := newRecorder()
	srv.Handler().ServeHTTP(rec, getReq("/healthz"))
	if rec.status != http.StatusOK {
		t.Fatalf("draining healthz = %d, want 200", rec.status)
	}
	// SetReady after StartDrain must not resurrect a draining server.
	srv.SetReady()
	if got := req(); got != http.StatusServiceUnavailable {
		t.Fatalf("post-drain SetReady readyz = %d, want 503", got)
	}
}

// Minimal recorder (avoids importing httptest just for status codes).
type recorder struct {
	status int
	header http.Header
	buf    bytes.Buffer
}

func newRecorder() *recorder            { return &recorder{status: http.StatusOK, header: http.Header{}} }
func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(code int) {
	r.status = code
}
func (r *recorder) Write(p []byte) (int, error) { return r.buf.Write(p) }

func getReq(path string) *http.Request {
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		panic(err)
	}
	return req
}

// LoadDir skip reasons surface as a count in /statsz and accumulate on
// the registry.
func TestStatszSkippedCount(t *testing.T) {
	dir := t.TempDir()
	// One real release, one junk file.
	raw := fileBytes(t, writeReleased(t, 46, false))
	if err := os.WriteFile(filepath.Join(dir, "real.bin"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.txt"), []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opts := Options{MaxBatch: 4, QueueDepth: 16, Threads: 1, Obs: reg}
	r, ts := httpServer(t, opts)
	entries, skipped, err := r.LoadDir(dir, ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || len(skipped) != 1 {
		t.Fatalf("loaded %d skipped %d, want 1/1", len(entries), len(skipped))
	}
	if r.SkippedCount() != 1 || len(r.SkippedEntries()) != 1 {
		t.Fatalf("registry skipped count %d", r.SkippedCount())
	}
	if got := r.SkippedEntries()[0]; !strings.HasSuffix(got.Path, "junk.txt") || got.Reason == "" {
		t.Fatalf("skipped entry %+v", got)
	}
	if got := reg.Counter("serve_load_skipped_total").Value(); got != 1 {
		t.Fatalf("serve_load_skipped_total = %d, want 1", got)
	}

	status, body := getJSON(t, ts.URL+"/statsz")
	if status != http.StatusOK {
		t.Fatalf("statsz status %d", status)
	}
	if string(body["skipped"]) != "1" {
		t.Fatalf("statsz skipped = %s, want 1", body["skipped"])
	}
}

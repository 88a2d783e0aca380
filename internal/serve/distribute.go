package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/artifact"
	"repro/internal/modelio"
)

// ReleaseKind is the artifact-store kind released model files (DACMRM1
// streams) are published under. The key is the hex SHA-256 of the file
// bytes — the same digest Entry.Digest reports — so a digest names
// byte-identical weights everywhere: a gateway assignment, a replica pull,
// and a /v1/models answer all speak the same content address.
const ReleaseKind = "release"

// ErrNoStore reports a digest operation on a registry with no artifact
// store attached (Options.Store). The HTTP layer maps it to 501.
var ErrNoStore = errors.New("serve: no artifact store attached")

// PublishRelease copies a released model stream from rr into the store
// under its content digest and returns that digest. The stream is decoded
// first, so garbage can never be published as a release; publishing bytes
// already in the store is a no-op (content addressing makes the write
// idempotent).
func PublishRelease(store *artifact.Store, rr io.Reader) (string, error) {
	raw, err := io.ReadAll(rr)
	if err != nil {
		return "", fmt.Errorf("serve: publish release: %w", err)
	}
	if _, err := modelio.Read(bytes.NewReader(raw)); err != nil {
		return "", fmt.Errorf("serve: publish release: %w", err)
	}
	sum := sha256.Sum256(raw)
	digest := hex.EncodeToString(sum[:])
	if store.Has(ReleaseKind, digest) {
		return digest, nil
	}
	err = store.Put(ReleaseKind, digest, func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
	if err != nil {
		return "", err
	}
	return digest, nil
}

// PublishReleaseFile publishes the released model file at path (see
// PublishRelease).
func PublishReleaseFile(store *artifact.Store, path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("serve: publish release: %w", err)
	}
	defer f.Close()
	return PublishRelease(store, f)
}

// LoadDigest pulls the released model named by digest from the registry's
// attached artifact store and registers it under name — the fleet
// distribution path: a gateway advertises {name → digest} and every
// replica that pulls the digest provably serves byte-identical weights.
// The pulled bytes are re-hashed and must reproduce the digest; a mismatch
// or decode failure evicts the store entry (self-healing, like the
// pipeline cache) and fails the load.
func (r *Registry) LoadDigest(name, digest string, mode LoadMode) (*Entry, error) {
	store := r.opts.Store
	if store == nil {
		return nil, fmt.Errorf("serve: load %q by digest: %w", name, ErrNoStore)
	}
	// The entry is accepted (a store hit) only if it decodes and hashes to
	// its key; one that is present but rejected is corrupt and evicted.
	corrupt := false
	rm, err := artifact.Load(store, ReleaseKind, digest, func(rr io.Reader) (*modelio.ReleasedModel, error) {
		rm, got, err := modelio.ReadWithDigest(rr)
		switch {
		case err != nil:
			err = fmt.Errorf("corrupt release %s evicted from store: %w", short(digest), err)
		case got != digest:
			err = fmt.Errorf("store entry %s hashes to %s (corruption); entry evicted", short(digest), short(got))
		}
		corrupt = err != nil
		return rm, err
	})
	if corrupt {
		store.Delete(ReleaseKind, digest)
		return nil, fmt.Errorf("serve: load %q: %w", name, err)
	}
	if err != nil {
		if keys, kerr := store.Keys(ReleaseKind); kerr == nil {
			return nil, fmt.Errorf("serve: load %q: release %s not in store (%d release(s) available: %s): %w",
				name, short(digest), len(keys), shortAll(keys), err)
		}
		return nil, fmt.Errorf("serve: load %q: %w", name, err)
	}
	return r.register(name, rm, digest, mode)
}

// short abbreviates a digest for error messages.
func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}

func shortAll(digests []string) string {
	if len(digests) == 0 {
		return "none"
	}
	out := ""
	for i, d := range digests {
		if i > 0 {
			out += ", "
		}
		out += short(d)
	}
	return out
}

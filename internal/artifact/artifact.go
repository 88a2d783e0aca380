// Package artifact provides the content-addressed store the stage-graph
// pipeline persists its intermediate results into: trained-model
// checkpoints, encoding plans, quantization records, and extraction
// reports. Every artifact is addressed by a deterministic SHA-256 cache
// key derived from the canonical encoding of the producing stage's
// configuration plus the keys of its upstream artifacts, so a re-run with
// the same inputs finds its outputs instead of recomputing them — across
// processes, not just within one (the in-process experiment memoizer
// already covers the latter).
//
// The store is a transparent byte container: artifact integrity is the
// codecs' job (each artifact kind has a magic header and structural
// validation, mirroring modelio), while the store guarantees atomic
// publication (temp file + rename) so a crashed writer never leaves a
// partial artifact behind.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
)

// Store is a content-addressed artifact store rooted at a directory.
// Artifacts are laid out as <root>/<kind>/<key[:2]>/<key>.bin. A Store is
// safe for concurrent use; concurrent writers of the same key race
// harmlessly because content-addressed artifacts with equal keys hold
// equal bytes and publication is an atomic rename.
type Store struct {
	root string

	hits, misses        atomic.Int64
	readBytes, putBytes atomic.Int64
}

// Stats is a point-in-time snapshot of a store's traffic counters.
type Stats struct {
	// Hits count Load calls that decoded their entry; Misses count Load
	// calls whose entry was absent or unusable.
	Hits, Misses int64
	// ReadBytes and WriteBytes total the artifact payload traffic.
	ReadBytes, WriteBytes int64
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		return nil, fmt.Errorf("artifact: open store: %w", err)
	}
	return &Store{root: dir}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// Stats returns the store's traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits: s.hits.Load(), Misses: s.misses.Load(),
		ReadBytes: s.readBytes.Load(), WriteBytes: s.putBytes.Load(),
	}
}

func (s *Store) path(kind, key string) (string, error) {
	if err := checkKind(kind); err != nil {
		return "", err
	}
	if err := checkKey(key); err != nil {
		return "", err
	}
	return filepath.Join(s.root, kind, key[:2], key+".bin"), nil
}

// Has reports whether the artifact exists, without touching the hit/miss
// counters (resume probing checks many speculative keys; only the key a
// stage actually reads or skips should count).
func (s *Store) Has(kind, key string) bool {
	p, err := s.path(kind, key)
	if err != nil {
		return false
	}
	_, err = os.Stat(p)
	return err == nil
}

// Get opens the artifact for reading; an absent key's error wraps
// fs.ErrNotExist. Bytes are counted as the caller reads them. Get does not
// touch the hit/miss counters: only Load knows whether the entry decodes.
func (s *Store) Get(kind, key string) (io.ReadCloser, error) {
	p, err := s.path(kind, key)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if err != nil {
		return nil, fmt.Errorf("artifact: %s/%s: %w", kind, key[:8], err)
	}
	return &countingReader{f: f, store: s}, nil
}

// count records one lookup as a cache hit or a miss.
func (s *Store) count(hit bool) {
	if hit {
		s.hits.Add(1)
		if obs.Enabled() {
			obs.Default.Counter("artifact_cache_hits_total").Inc()
		}
		return
	}
	s.misses.Add(1)
	if obs.Enabled() {
		obs.Default.Counter("artifact_cache_misses_total").Inc()
	}
}

// Put writes the artifact atomically: write streams the payload into a
// temp file which is renamed into place only after write (and a sync)
// succeeded. A failed write leaves no trace under the key.
func (s *Store) Put(kind, key string, write func(io.Writer) error) error {
	p, err := s.path(kind, key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("artifact: put %s: %w", kind, err)
	}
	tmp, err := os.CreateTemp(filepath.Join(s.root, "tmp"), kind+"-*")
	if err != nil {
		return fmt.Errorf("artifact: put %s: %w", kind, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	cw := &countingWriter{w: tmp}
	if err := write(cw); err != nil {
		tmp.Close()
		return fmt.Errorf("artifact: put %s/%s: %w", kind, key[:8], err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("artifact: put %s: sync: %w", kind, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("artifact: put %s: close: %w", kind, err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return fmt.Errorf("artifact: put %s: publish: %w", kind, err)
	}
	s.putBytes.Add(cw.n)
	if obs.Enabled() {
		obs.Default.Counter("artifact_cache_writes_total").Inc()
		obs.Default.Counter("artifact_cache_write_bytes_total").Add(cw.n)
	}
	return nil
}

// Keys lists every key present under kind, sorted. A kind with no
// artifacts (or whose directory does not exist yet) yields an empty list.
// The serving fleet uses this to enumerate distributable releases when a
// requested digest is missing, so the error can say what is available.
func (s *Store) Keys(kind string) ([]string, error) {
	if err := checkKind(kind); err != nil {
		return nil, err
	}
	dir := filepath.Join(s.root, kind)
	shards, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("artifact: keys %s: %w", kind, err)
	}
	var keys []string
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		des, err := os.ReadDir(filepath.Join(dir, sh.Name()))
		if err != nil {
			return nil, fmt.Errorf("artifact: keys %s: %w", kind, err)
		}
		for _, de := range des {
			name := de.Name()
			if de.IsDir() || !strings.HasSuffix(name, ".bin") {
				continue
			}
			if key := strings.TrimSuffix(name, ".bin"); checkKey(key) == nil {
				keys = append(keys, key)
			}
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Delete removes the artifact if present (used to evict entries a reader
// found corrupt, so the next run rebuilds them).
func (s *Store) Delete(kind, key string) error {
	p, err := s.path(kind, key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("artifact: delete %s: %w", kind, err)
	}
	return nil
}

func checkKind(kind string) error {
	if kind == "" {
		return fmt.Errorf("artifact: empty kind")
	}
	for _, r := range kind {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return fmt.Errorf("artifact: bad kind %q", kind)
		}
	}
	return nil
}

func checkKey(key string) error {
	if len(key) < 16 {
		return fmt.Errorf("artifact: key %q too short", key)
	}
	for _, r := range key {
		if (r < 'a' || r > 'f') && (r < '0' || r > '9') {
			return fmt.Errorf("artifact: key %q is not lowercase hex", key)
		}
	}
	return nil
}

type countingReader struct {
	f     *os.File
	store *Store
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.f.Read(p)
	if n > 0 {
		c.store.readBytes.Add(int64(n))
		if obs.Enabled() {
			obs.Default.Counter("artifact_cache_read_bytes_total").Add(int64(n))
		}
	}
	return n, err
}

func (c *countingReader) Close() error { return c.f.Close() }

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Key builds a deterministic SHA-256 cache key from labeled, canonically
// encoded values. Every value is written as a length-prefixed label, a
// type tag, and a fixed-endianness payload (floats as IEEE-754 bits), so
// the same logical configuration produces the same key on every platform
// and the encoding is prefix-unambiguous.
type Key struct {
	h hash.Hash
}

// NewKey starts a key in the given domain (conventionally
// "<stage>/v<N>"; bumping N invalidates all cached artifacts of the
// stage after a semantic change).
func NewKey(domain string) *Key {
	k := &Key{h: sha256.New()}
	k.label(domain)
	return k
}

func (k *Key) label(s string) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
	k.h.Write(n[:])
	io.WriteString(k.h, s)
}

func (k *Key) tag(t byte) { k.h.Write([]byte{t}) }

func (k *Key) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	k.h.Write(b[:])
}

// Str mixes a labeled string into the key.
func (k *Key) Str(label, v string) *Key {
	k.label(label)
	k.tag('s')
	k.label(v)
	return k
}

// Int mixes a labeled integer into the key.
func (k *Key) Int(label string, v int64) *Key {
	k.label(label)
	k.tag('i')
	k.u64(uint64(v))
	return k
}

// Bool mixes a labeled boolean into the key.
func (k *Key) Bool(label string, v bool) *Key {
	k.label(label)
	k.tag('b')
	if v {
		k.u64(1)
	} else {
		k.u64(0)
	}
	return k
}

// Float mixes a labeled float into the key by its exact IEEE-754 bits.
func (k *Key) Float(label string, v float64) *Key {
	k.label(label)
	k.tag('f')
	k.u64(math.Float64bits(v))
	return k
}

// Ints mixes a labeled integer slice into the key.
func (k *Key) Ints(label string, vs []int) *Key {
	k.label(label)
	k.tag('I')
	k.u64(uint64(len(vs)))
	for _, v := range vs {
		k.u64(uint64(v))
	}
	return k
}

// Floats mixes a labeled float slice into the key.
func (k *Key) Floats(label string, vs []float64) *Key {
	k.label(label)
	k.tag('F')
	k.u64(uint64(len(vs)))
	for _, v := range vs {
		k.u64(math.Float64bits(v))
	}
	return k
}

// Sum returns the hex SHA-256 of everything mixed in so far. The key
// remains usable; further writes extend the same stream.
func (k *Key) Sum() string {
	return hex.EncodeToString(k.h.Sum(nil))
}

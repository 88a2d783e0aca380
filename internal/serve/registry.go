package serve

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/modelio"
	"repro/internal/nn"
)

// LoadMode selects the physical form a quantized release is served in.
type LoadMode int

const (
	// ModeAuto picks codebook-native for quantized releases when the
	// registry's Options.NativeQuant is set, dequantized otherwise.
	// Full-precision releases always load dense.
	ModeAuto LoadMode = iota
	// ModeDequantized materializes float weight tensors from the codebooks
	// (the historical behavior).
	ModeDequantized
	// ModeNative serves the codebooks and uint8 indices directly through
	// the LUT matmul kernels; float weight copies are never materialized.
	// Fails on full-precision releases, which have no codebooks to serve.
	ModeNative
)

// Entry is one registered model: the imported network, its serving engine,
// and the release metadata clients see.
type Entry struct {
	// Name is the registry key the model serves under.
	Name string
	// Digest is the hex SHA-256 of the released file's bytes; two loads of
	// byte-identical files get the same digest regardless of name.
	Digest string
	// Arch is the released architecture.
	Arch nn.ResNetConfig
	// Quantized reports whether the release carries codebook-compressed
	// units.
	Quantized bool
	// Native reports whether eval runs codebook-native (LUT kernels over
	// the release's indices) instead of over dequantized float weights.
	Native bool
	// Params is the scalar parameter count.
	Params int
	// Size is the release's storage footprint.
	Size modelio.SizeReport

	model  *nn.Model
	engine *Engine
	// rm is the release record, retained by native entries so weight-level
	// consumers (the audit endpoint) can dequantize on demand; nil for
	// dequantized entries, whose model already holds float weights.
	rm *modelio.ReleasedModel
}

// Predict submits one request's flattened inputs to the model's batching
// engine and blocks for the predictions and the request's Timing (see
// Engine.Submit).
func (en *Entry) Predict(inputs [][]float64) ([]Prediction, Timing, error) {
	return en.engine.Submit(inputs)
}

// Model exposes the imported network for weight inspection (the audit
// endpoint). Forward passes must go through Predict — the engine goroutine
// owns the model's compute context.
func (en *Entry) Model() *nn.Model { return en.model }

// AuditModel returns a model whose float weights are readable: the served
// model for dequantized entries, or a fresh dequantized import of the
// retained release for native entries (whose served model has released its
// float weight storage). The fresh import is independent of the serving
// engine, so audits run safely alongside in-flight forward passes.
func (en *Entry) AuditModel() (*nn.Model, error) {
	if !en.Native {
		return en.model, nil
	}
	m, _, err := modelio.Import(en.rm)
	if err != nil {
		return nil, fmt.Errorf("serve: audit dequantize %q: %w", en.Name, err)
	}
	return m, nil
}

// ResidentBytes estimates the entry's resident model footprint: parameter
// float storage (values and gradient accumulators actually allocated —
// codebook-bound parameters count zero), batch-norm running statistics,
// and, for native entries, each bound parameter's codebook view (its
// indices plus its unit's lookup table) and the retained release record's
// dense payload. This is the number BENCH_serve_quant.json compares across
// load modes.
func (en *Entry) ResidentBytes() int {
	n := 0
	for _, p := range en.model.Params() {
		n += 8 * (p.Value.Len() + p.Grad.Len())
		if w := p.Weights(); !w.IsDense() {
			n += w.Bytes()
		}
	}
	nn.Walk(en.model.Net, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			n += 8 * (len(bn.RunMean) + len(bn.RunVar))
		}
	})
	if en.Native {
		for _, b := range en.rm.Dense {
			n += 8 * len(b.Values)
		}
		for _, bn := range en.rm.BNStats {
			n += 8 * (len(bn.RunMean) + len(bn.RunVar))
		}
	}
	return n
}

// Stats returns the engine's counters.
func (en *Entry) Stats() Snapshot { return en.engine.Stats() }

// Registry holds the models a server is willing to serve, keyed by name.
// All methods are safe for concurrent use; Load hot-swaps atomically.
type Registry struct {
	opts Options

	mu     sync.RWMutex
	models map[string]*Entry
	closed bool
	// policies holds per-model serving defenses, keyed by model name (not
	// entry) so a policy survives hot swaps of the weights underneath.
	policies map[string]Policy
	// skipped accumulates the directory entries LoadDir examined but did
	// not serve, so /statsz can report the count and startup can log each.
	skipped []Skipped
}

// NewRegistry builds an empty registry whose engines use opts.
func NewRegistry(opts Options) *Registry {
	return &Registry{opts: opts.withDefaults(), models: map[string]*Entry{}, policies: map[string]Policy{}}
}

// Options returns the registry's resolved engine options.
func (r *Registry) Options() Options { return r.opts }

// Load reads a released model from src and registers it under name,
// starting its batching engine. The serving form follows ModeAuto (see
// LoadWithMode). If the name is taken, the new model is swapped in
// atomically: requests that already reached the old engine are drained
// through final batched passes, later ones see the new model.
func (r *Registry) Load(name string, src io.Reader) (*Entry, error) {
	return r.LoadWithMode(name, src, ModeAuto)
}

// LoadWithMode is Load with an explicit serving form for quantized
// releases. ModeNative fails on full-precision releases; either mode
// produces bit-identical predictions (the codebook kernels' guarantee),
// differing only in resident footprint and weight-read cost.
func (r *Registry) LoadWithMode(name string, src io.Reader, mode LoadMode) (*Entry, error) {
	rm, digest, err := modelio.ReadWithDigest(src)
	if err != nil {
		return nil, fmt.Errorf("serve: load %q: %w", name, err)
	}
	return r.register(name, rm, digest, mode)
}

// register resolves the serving mode, imports the release, and swaps the
// entry in under name — the shared tail of every load path (reader, file,
// directory, store digest).
func (r *Registry) register(name string, rm *modelio.ReleasedModel, digest string, mode LoadMode) (*Entry, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: model name must be non-empty")
	}
	if mode == ModeAuto {
		if r.opts.NativeQuant && len(rm.Quantized) > 0 {
			mode = ModeNative
		} else {
			mode = ModeDequantized
		}
	}
	en := &Entry{
		Name:      name,
		Digest:    digest,
		Arch:      rm.Arch,
		Quantized: len(rm.Quantized) > 0,
		Params:    modelio.NumScalars(rm),
		Size:      modelio.Size(rm),
	}
	switch mode {
	case ModeNative:
		m, _, err := modelio.ImportNative(rm)
		if err != nil {
			return nil, fmt.Errorf("serve: load %q: %w", name, err)
		}
		en.model, en.rm = m, rm
		en.Native = true
	default:
		m, _, err := modelio.Import(rm)
		if err != nil {
			return nil, fmt.Errorf("serve: load %q: %w", name, err)
		}
		en.model = m
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	en.engine = newEngine(en.model, name, r.opts)
	old := r.models[name]
	r.models[name] = en
	r.mu.Unlock()
	if old != nil {
		old.engine.Close()
	}
	return en, nil
}

// LoadFile reads a released model file from path and registers it.
func (r *Registry) LoadFile(name, path string) (*Entry, error) {
	return r.loadFileWithMode(name, path, ModeAuto)
}

// Skipped describes a directory entry LoadDir examined but did not serve.
type Skipped struct {
	// Path is the file's full path.
	Path string
	// Reason says why it was skipped.
	Reason string
}

// LoadDir registers every released model (DACMRM1) in dir under its file
// name minus extension, so one directory can mix full-precision and
// quantized releases. The magic header decides, not the extension; every
// other regular file is reported as skipped rather than an error. Two
// files that resolve to the same serving name is an error (which file
// wins would be ordering luck).
func (r *Registry) LoadDir(dir string, mode LoadMode) ([]*Entry, []Skipped, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: load dir: %w", err)
	}
	var entries []*Entry
	var skipped []Skipped
	seen := map[string]string{}
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		path := filepath.Join(dir, de.Name())
		ok, err := modelio.IsReleaseFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("serve: load dir: %w", err)
		}
		if !ok {
			skipped = append(skipped, Skipped{Path: path, Reason: "not a released model"})
			continue
		}
		name := strings.TrimSuffix(de.Name(), filepath.Ext(de.Name()))
		if prev, dup := seen[name]; dup {
			return nil, nil, fmt.Errorf("serve: %q and %q both resolve to model name %q", prev, path, name)
		}
		seen[name] = path
		en, err := r.loadFileWithMode(name, path, mode)
		if err != nil {
			return nil, nil, err
		}
		entries = append(entries, en)
	}
	if len(skipped) > 0 {
		r.mu.Lock()
		r.skipped = append(r.skipped, skipped...)
		r.mu.Unlock()
		r.opts.Obs.Counter("serve_load_skipped_total").Add(int64(len(skipped)))
	}
	return entries, skipped, nil
}

// SkippedEntries returns every directory entry LoadDir skipped since the
// registry was created, in load order.
func (r *Registry) SkippedEntries() []Skipped {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]Skipped(nil), r.skipped...)
}

// SkippedCount reports how many directory entries LoadDir skipped.
func (r *Registry) SkippedCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.skipped)
}

func (r *Registry) loadFileWithMode(name, path string, mode LoadMode) (*Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: load %q: %w", name, err)
	}
	defer f.Close()
	return r.LoadWithMode(name, f, mode)
}

// SetPolicy installs the serving policy for name after validating it. The
// model need not be loaded yet — policies are name-keyed configuration, so
// a defense can be staged before the first load and survives hot swaps.
func (r *Registry) SetPolicy(name string, p Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p == (Policy{}) {
		delete(r.policies, name)
		return nil
	}
	r.policies[name] = p
	return nil
}

// PolicyFor returns name's serving policy (the zero, undefended Policy
// when none is set).
func (r *Registry) PolicyFor(name string) Policy {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.policies[name]
}

// Get returns the entry serving under name.
func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	en, ok := r.models[name]
	return en, ok
}

// List returns all entries sorted by name.
func (r *Registry) List() []*Entry {
	r.mu.RLock()
	out := make([]*Entry, 0, len(r.models))
	for _, en := range r.models {
		out = append(out, en)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Remove unregisters name, draining and stopping its engine; the engine's
// metric series leave the obs registry too (identity-checked, so a series
// already taken over by a hot swap stays). It reports whether a model was
// removed.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	en, ok := r.models[name]
	delete(r.models, name)
	r.mu.Unlock()
	if ok {
		en.engine.Close()
		en.engine.stats.unregister()
	}
	return ok
}

// Stats returns a per-model snapshot map.
func (r *Registry) Stats() map[string]Snapshot {
	out := make(map[string]Snapshot)
	for _, en := range r.List() {
		out[en.Name] = en.Stats()
	}
	return out
}

// Close drains and stops every engine and rejects further loads. Requests
// already accepted complete; later ones fail with ErrClosed.
func (r *Registry) Close() {
	r.mu.Lock()
	r.closed = true
	entries := make([]*Entry, 0, len(r.models))
	for _, en := range r.models {
		entries = append(entries, en)
	}
	r.mu.Unlock()
	for _, en := range entries {
		en.engine.Close()
	}
}

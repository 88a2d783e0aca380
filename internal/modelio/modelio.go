// Package modelio serializes released models. It completes the paper's
// threat-model loop: the data holder trains with the (malicious) pipeline
// and *releases* a model file; the adversary later loads that file with no
// access to the training process and runs extraction on its weights.
//
// Quantized models are stored the way deployment formats store them — a
// per-unit codebook plus one index per weight — so the on-disk size
// reflects the compression the paper's quantization buys.
package modelio

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/artifact"
	"repro/internal/nn"
	"repro/internal/quantize"
)

// magic identifies a released model file; the trailing digit is the format
// version. Read rejects anything else up front so that a wrong file (or a
// pre-versioned stream) fails with ErrBadMagic instead of a gob decode
// error deep in the payload.
const magic = "DACMRM1\n"

// ErrBadMagic reports that a stream is not a released model file.
var ErrBadMagic = errors.New("modelio: bad magic (not a released model file)")

// ErrMalformed reports a release whose contents cannot build the model it
// describes: an impossible architecture, values that do not fit it, or a
// parameter filled twice or not at all.
var ErrMalformed = errors.New("modelio: malformed release")

// gob numbers stream types from a process-global counter in first-use
// order, so a ReleasedModel encoded after other gob traffic (the artifact
// codecs, say) would carry different framing bytes than one encoded first,
// breaking byte-reproducibility of released files and splintering
// digest-keyed caches. Encoding a zero value at init assigns the IDs for
// the whole type closure before any runtime gob use can shift them.
func init() {
	_ = gob.NewEncoder(io.Discard).Encode(&ReleasedModel{})
}

// ParamBlob is one full-precision parameter tensor.
type ParamBlob struct {
	Name   string
	Shape  []int
	Values []float64
}

// QuantUnit is one quantized codebook scope: the shared levels and, per
// parameter, the cluster index of every element.
type QuantUnit struct {
	Name       string
	Levels     []float64
	ParamNames []string
	Indices    [][]uint8
}

// ReleasedModel is the serialized form of a (possibly quantized) model.
type ReleasedModel struct {
	// Arch rebuilds the network deterministically.
	Arch nn.ResNetConfig
	// Dense holds parameters stored at full precision (biases, batch-norm
	// affine, running statistics, and unquantized weights).
	Dense []ParamBlob
	// Quantized holds codebook-compressed weight parameters.
	Quantized []QuantUnit
	// BNStats holds batch-norm running statistics by layer name.
	BNStats []BNBlob
}

// BNBlob carries one batch-norm layer's running statistics.
type BNBlob struct {
	Name    string
	RunMean []float64
	RunVar  []float64
}

// Export captures a model (and its quantization record, if any) into a
// serializable ReleasedModel. Only MiniResNet models (built by
// nn.NewResNet) can be exported, since Arch must reconstruct the network.
func Export(m *nn.Model, arch nn.ResNetConfig, applied *quantize.Applied) (*ReleasedModel, error) {
	rm := &ReleasedModel{Arch: arch}
	quantized := map[string]bool{}
	if applied != nil {
		for _, u := range applied.Units {
			if u.Book.NumLevels() > 256 {
				return nil, fmt.Errorf("modelio: unit %q has %d levels; index format is 8-bit", u.Name, u.Book.NumLevels())
			}
			qu := QuantUnit{Name: u.Name, Levels: append([]float64(nil), u.Book.Levels...)}
			for pi, p := range u.Params {
				idx := make([]uint8, len(u.Assign[pi]))
				for i, k := range u.Assign[pi] {
					idx[i] = uint8(k)
				}
				qu.ParamNames = append(qu.ParamNames, p.Name)
				qu.Indices = append(qu.Indices, idx)
				quantized[p.Name] = true
			}
			rm.Quantized = append(rm.Quantized, qu)
		}
	}
	for _, p := range m.Params() {
		if quantized[p.Name] {
			continue
		}
		rm.Dense = append(rm.Dense, ParamBlob{
			Name:   p.Name,
			Shape:  append([]int(nil), p.Value.Shape()...),
			Values: append([]float64(nil), p.Value.Data()...),
		})
	}
	collectBN(m.Net, &rm.BNStats)
	return rm, nil
}

// Import reconstructs the model from a ReleasedModel.
func Import(rm *ReleasedModel) (*nn.Model, *quantize.Applied, error) {
	m, ps, err := importDense(rm)
	if err != nil {
		return nil, nil, err
	}
	var applied *quantize.Applied
	if len(rm.Quantized) > 0 {
		applied = &quantize.Applied{}
		for _, qu := range rm.Quantized {
			u := &quantize.Unit{
				Name:      qu.Name,
				Book:      codebookFromLevels(qu.Levels),
				Quantizer: "imported",
				Levels:    len(qu.Levels),
			}
			for pi, name := range qu.ParamNames {
				p, err := ps.claim(name, len(qu.Indices[pi]))
				if err != nil {
					return nil, nil, err
				}
				assign := make([]int, len(qu.Indices[pi]))
				vd := p.Value.Data()
				for i, k := range qu.Indices[pi] {
					assign[i] = int(k)
					vd[i] = qu.Levels[k]
				}
				u.Params = append(u.Params, p)
				u.Assign = append(u.Assign, assign)
			}
			applied.Units = append(applied.Units, u)
		}
	}
	if err := restoreBN(m.Net, rm.BNStats); err != nil {
		return nil, nil, err
	}
	return m, applied, nil
}

// importDense validates rm, builds its architecture and fills the
// full-precision parameters. The returned set resolves the quantized ones.
func importDense(rm *ReleasedModel) (*nn.Model, paramSet, error) {
	if err := validate(rm); err != nil {
		return nil, paramSet{}, err
	}
	m := nn.NewResNet(rm.Arch)
	ps := paramSet{byName: map[string]*nn.Param{}, filled: map[*nn.Param]bool{}}
	for _, p := range m.Params() {
		ps.byName[p.Name] = p
	}
	for _, blob := range rm.Dense {
		p, err := ps.claim(blob.Name, len(blob.Values))
		if err != nil {
			return nil, paramSet{}, err
		}
		copy(p.Value.Data(), blob.Values)
	}
	return m, ps, nil
}

// paramSet indexes a freshly built model's parameters by name and records
// which ones a release has filled, so each is filled exactly once. Since
// validate has matched the release's value count to the architecture's,
// filling no parameter twice also leaves none unset.
type paramSet struct {
	byName map[string]*nn.Param
	filled map[*nn.Param]bool
}

// claim returns the parameter called name after checking that it holds n
// elements and that no earlier blob filled it.
func (ps paramSet) claim(name string, n int) (*nn.Param, error) {
	p, ok := ps.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: unknown parameter %q", ErrMalformed, name)
	}
	if p.NumEl() != n {
		return nil, fmt.Errorf("%w: parameter %q has %d elements, file has %d", ErrMalformed, name, p.NumEl(), n)
	}
	if ps.filled[p] {
		return nil, fmt.Errorf("%w: parameter %q is set twice", ErrMalformed, name)
	}
	ps.filled[p] = true
	return p, nil
}

// releaseCodec is the released-model format (DACMRM1).
var releaseCodec = artifact.Codec[ReleasedModel]{
	Magic: magic, Name: "modelio: release", BadMagic: ErrBadMagic, Check: validate,
}

// Write serializes rm to w: the magic header followed by a gob payload.
func Write(w io.Writer, rm *ReleasedModel) error { return releaseCodec.Write(w, rm) }

// Read deserializes a ReleasedModel from r, verifying the magic header and
// the structural consistency of the payload. Truncated or foreign streams
// return wrapped errors (io.ErrUnexpectedEOF, ErrBadMagic) — never a panic.
func Read(r io.Reader) (*ReleasedModel, error) { return releaseCodec.Read(r) }

// ReadWithDigest reads a released model from r and also returns the hex
// SHA-256 of the entire stream — the content hash serving registries key
// models on. r is consumed to EOF so the digest covers the whole file, not
// just the bytes the decoder happened to buffer.
func ReadWithDigest(r io.Reader) (*ReleasedModel, string, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, "", fmt.Errorf("modelio: read: %w", err)
	}
	rm, err := Read(bytes.NewReader(raw))
	if err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(raw)
	return rm, hex.EncodeToString(sum[:]), nil
}

// validate checks the structural invariants a well-formed ReleasedModel
// satisfies, so a corrupted or hostile file fails with an ErrMalformed
// error instead of a panic in Import or an allocation sized by its header.
func validate(rm *ReleasedModel) error {
	want := rm.Arch.NumParams()
	if want < 0 {
		return fmt.Errorf("%w: architecture %+v cannot be built", ErrMalformed, rm.Arch)
	}
	if !rm.Arch.ActivationsFit() {
		return fmt.Errorf("%w: architecture %+v has activations too large to index", ErrMalformed, rm.Arch)
	}
	for _, b := range rm.Dense {
		n := 1
		for _, d := range b.Shape {
			if d <= 0 {
				return fmt.Errorf("%w: parameter %q has invalid shape %v", ErrMalformed, b.Name, b.Shape)
			}
			n *= d
		}
		if len(b.Shape) == 0 || n != len(b.Values) {
			return fmt.Errorf("%w: parameter %q shape %v does not match %d values", ErrMalformed, b.Name, b.Shape, len(b.Values))
		}
	}
	for _, qu := range rm.Quantized {
		if len(qu.Levels) == 0 || len(qu.Levels) > 256 {
			return fmt.Errorf("%w: unit %q has %d codebook levels (want 1..256)", ErrMalformed, qu.Name, len(qu.Levels))
		}
		if len(qu.ParamNames) != len(qu.Indices) {
			return fmt.Errorf("%w: unit %q has %d parameter names but %d index slices", ErrMalformed, qu.Name, len(qu.ParamNames), len(qu.Indices))
		}
		for pi, idx := range qu.Indices {
			for _, k := range idx {
				if int(k) >= len(qu.Levels) {
					return fmt.Errorf("%w: unit %q parameter %q has index %d out of range for %d levels", ErrMalformed, qu.Name, qu.ParamNames[pi], k, len(qu.Levels))
				}
			}
		}
	}
	for _, bn := range rm.BNStats {
		if len(bn.RunMean) != len(bn.RunVar) {
			return fmt.Errorf("%w: batch-norm %q has %d means but %d variances", ErrMalformed, bn.Name, len(bn.RunMean), len(bn.RunVar))
		}
	}
	if got := NumScalars(rm); got != want {
		return fmt.Errorf("%w: architecture has %d parameter values, file has %d", ErrMalformed, want, got)
	}
	return nil
}

// Save writes the model file at path.
func Save(path string, rm *ReleasedModel) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := Write(f, rm); err != nil {
		return err
	}
	return f.Sync()
}

// Load reads a model file from path.
func Load(path string) (*ReleasedModel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// LoadWithDigest reads a model file from path along with the hex SHA-256 of
// its contents.
func LoadWithDigest(path string) (*ReleasedModel, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	return ReadWithDigest(f)
}

// SizeReport describes the storage footprint of a released model.
type SizeReport struct {
	// DenseBytes is the full-precision payload (8 bytes per value).
	DenseBytes int
	// CodebookBytes is the total codebook storage (8 bytes per level).
	CodebookBytes int
	// IndexBits is the packed size of the quantized indices at
	// ceil(log2(levels)) bits per weight.
	IndexBits int
	// RawBytes is what the same model would take fully uncompressed.
	RawBytes int
}

// TotalBytes returns the compressed storage total.
func (s SizeReport) TotalBytes() int {
	return s.DenseBytes + s.CodebookBytes + (s.IndexBits+7)/8
}

// Ratio returns RawBytes / TotalBytes (higher = better compression).
func (s SizeReport) Ratio() float64 {
	t := s.TotalBytes()
	if t == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(t)
}

// Size computes the storage footprint of rm.
func Size(rm *ReleasedModel) SizeReport {
	var rep SizeReport
	for _, b := range rm.Dense {
		rep.DenseBytes += 8 * len(b.Values)
		rep.RawBytes += 8 * len(b.Values)
	}
	for _, qu := range rm.Quantized {
		rep.CodebookBytes += 8 * len(qu.Levels)
		bits := bitsFor(len(qu.Levels))
		for _, idx := range qu.Indices {
			rep.IndexBits += bits * len(idx)
			rep.RawBytes += 8 * len(idx)
		}
	}
	for _, bn := range rm.BNStats {
		rep.DenseBytes += 8 * (len(bn.RunMean) + len(bn.RunVar))
		rep.RawBytes += 8 * (len(bn.RunMean) + len(bn.RunVar))
	}
	return rep
}

func bitsFor(levels int) int {
	b := 1
	for 1<<b < levels {
		b++
	}
	return b
}

func codebookFromLevels(levels []float64) quantize.Codebook {
	// Rebuild midpoint boundaries; they are only needed if the model is
	// re-quantized, not for inference or extraction.
	cb := quantize.Codebook{Levels: append([]float64(nil), levels...)}
	cb.Bounds = make([]float64, len(levels)+1)
	cb.Bounds[0] = math.Inf(-1)
	for i := 1; i < len(levels); i++ {
		cb.Bounds[i] = (levels[i-1] + levels[i]) / 2
	}
	cb.Bounds[len(levels)] = math.Inf(1)
	return cb
}

// collectBN walks the layer tree and captures batch-norm running stats.
func collectBN(l nn.Layer, out *[]BNBlob) {
	nn.Walk(l, func(child nn.Layer) {
		if bn, ok := child.(*nn.BatchNorm2D); ok {
			*out = append(*out, BNBlob{
				Name:    bn.Name(),
				RunMean: append([]float64(nil), bn.RunMean...),
				RunVar:  append([]float64(nil), bn.RunVar...),
			})
		}
	})
}

// restoreBN writes captured running stats back into the model.
func restoreBN(l nn.Layer, blobs []BNBlob) error {
	byName := map[string]BNBlob{}
	for _, b := range blobs {
		byName[b.Name] = b
	}
	var firstErr error
	nn.Walk(l, func(child nn.Layer) {
		bn, ok := child.(*nn.BatchNorm2D)
		if !ok || firstErr != nil {
			return
		}
		b, ok := byName[bn.Name()]
		if !ok {
			firstErr = fmt.Errorf("%w: missing batch-norm stats for %q", ErrMalformed, bn.Name())
			return
		}
		if len(b.RunMean) != len(bn.RunMean) {
			firstErr = fmt.Errorf("%w: batch-norm %q channel mismatch", ErrMalformed, bn.Name())
			return
		}
		copy(bn.RunMean, b.RunMean)
		copy(bn.RunVar, b.RunVar)
	})
	return firstErr
}

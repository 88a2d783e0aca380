package quantize

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/artifact"
	"repro/internal/nn"
)

// appliedMagic identifies a quantization-record artifact; the trailing
// digit is the format version.
const appliedMagic = "DACQAP1\n"

// ErrBadApplied reports that a stream is not a quantization record.
var ErrBadApplied = errors.New("quantize: bad magic (not a quantization record)")

// appliedCodec is the quantization-record format (DACQAP1), the store's
// quant-record kind.
var appliedCodec = artifact.Codec[AppliedBlob]{
	Magic: appliedMagic, Name: "quantize: record", BadMagic: ErrBadApplied, Check: validateApplied,
}

// AppliedBlob is the serializable form of an Applied record. It references
// parameters by name instead of pointer so the record can be rebound to a
// freshly built model (Bind); levels and assignments fully determine the
// quantized weight values, so binding also re-materializes them.
type AppliedBlob struct {
	Units []UnitBlob
}

// UnitBlob is one codebook scope in serialized form.
type UnitBlob struct {
	Name       string
	Levels     []float64
	Bounds     []float64
	Quantizer  string
	ReqLevels  int
	ParamNames []string
	// Assign holds, parallel to ParamNames, each element's cluster index.
	Assign [][]int32
}

// Snapshot captures an Applied record into its serializable form.
func Snapshot(a *Applied) *AppliedBlob {
	blob := &AppliedBlob{}
	for _, u := range a.Units {
		ub := UnitBlob{
			Name:      u.Name,
			Levels:    append([]float64(nil), u.Book.Levels...),
			Bounds:    append([]float64(nil), u.Book.Bounds...),
			Quantizer: u.Quantizer,
			ReqLevels: u.Levels,
		}
		for pi, p := range u.Params {
			idx := make([]int32, len(u.Assign[pi]))
			for i, k := range u.Assign[pi] {
				idx[i] = int32(k)
			}
			ub.ParamNames = append(ub.ParamNames, p.Name)
			ub.Assign = append(ub.Assign, idx)
		}
		blob.Units = append(blob.Units, ub)
	}
	return blob
}

// Bind reconstructs a live Applied record on m from the blob, rewriting
// every covered parameter's values from its codebook (value[i] =
// levels[assign[i]]), so the model leaves Bind exactly as quantized as it
// was when the blob was captured.
func (blob *AppliedBlob) Bind(m *nn.Model) (*Applied, error) {
	byName := map[string]*nn.Param{}
	for _, p := range m.Params() {
		byName[p.Name] = p
	}
	a := &Applied{}
	for _, ub := range blob.Units {
		u := &Unit{
			Name: ub.Name,
			Book: Codebook{
				Levels: append([]float64(nil), ub.Levels...),
				Bounds: append([]float64(nil), ub.Bounds...),
			},
			Quantizer: ub.Quantizer,
			Levels:    ub.ReqLevels,
		}
		for pi, name := range ub.ParamNames {
			p, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("quantize: record references unknown parameter %q", name)
			}
			if p.NumEl() != len(ub.Assign[pi]) {
				return nil, fmt.Errorf("quantize: record for %q has %d indices, parameter has %d",
					name, len(ub.Assign[pi]), p.NumEl())
			}
			assign := make([]int, len(ub.Assign[pi]))
			vd := p.Value.Data()
			for i, k := range ub.Assign[pi] {
				if k < 0 || int(k) >= len(ub.Levels) {
					return nil, fmt.Errorf("quantize: record index %d out of range for %d levels in %q",
						k, len(ub.Levels), name)
				}
				assign[i] = int(k)
				vd[i] = ub.Levels[k]
			}
			u.Params = append(u.Params, p)
			u.Assign = append(u.Assign, assign)
		}
		a.Units = append(a.Units, u)
	}
	return a, nil
}

// EncodeApplied serializes a quantization record.
func EncodeApplied(w io.Writer, blob *AppliedBlob) error { return appliedCodec.Write(w, blob) }

// DecodeApplied reads a quantization record, verifying the magic header
// and the structural consistency of the payload. Truncated or foreign
// streams return wrapped errors — never a panic.
func DecodeApplied(r io.Reader) (*AppliedBlob, error) { return appliedCodec.Read(r) }

// validateApplied checks the structural invariants Bind indexes on.
func validateApplied(blob *AppliedBlob) error {
	for _, ub := range blob.Units {
		if len(ub.Levels) == 0 {
			return fmt.Errorf("quantize: unit %q has an empty codebook", ub.Name)
		}
		if err := (Codebook{Levels: ub.Levels, Bounds: ub.Bounds}).Validate(); err != nil {
			return fmt.Errorf("quantize: unit %q: %w", ub.Name, err)
		}
		if len(ub.ParamNames) != len(ub.Assign) {
			return fmt.Errorf("quantize: unit %q has %d parameter names but %d index slices",
				ub.Name, len(ub.ParamNames), len(ub.Assign))
		}
		for pi, name := range ub.ParamNames {
			if name == "" || len(ub.Assign[pi]) == 0 {
				return fmt.Errorf("quantize: unit %q has an empty parameter entry", ub.Name)
			}
		}
	}
	return nil
}

package modelio

import (
	"fmt"
	"io"
	"os"

	"repro/internal/nn"
)

// IsRelease reports whether r starts with a released model's magic
// header. It reads only the header; a stream shorter than it is not a
// release.
func IsRelease(r io.Reader) bool { return releaseCodec.Is(r) }

// IsReleaseFile reports whether the file at path is a released model by
// its magic header, regardless of file extension.
func IsReleaseFile(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	return IsRelease(f), nil
}

// NumScalars returns the total scalar parameter count a released model
// carries (dense values plus quantized indices). It reads the record, not
// a reconstructed model, so it stays correct for native loads whose float
// parameter storage has been released.
func NumScalars(rm *ReleasedModel) int {
	n := 0
	for _, b := range rm.Dense {
		n += len(b.Values)
	}
	for _, qu := range rm.Quantized {
		for _, idx := range qu.Indices {
			n += len(idx)
		}
	}
	return n
}

// ImportNative reconstructs a quantized released model for codebook-native
// serving: the architecture is rebuilt and dense parameters (biases,
// batch-norm affine, unquantized weights) are filled exactly as Import
// does, but quantized weights are never dequantized. Instead each one is
// bound (nn.Param.BindCodebook) to a view aliasing rm's codebook and uint8
// index slice zero-copy, which drops its float value and gradient storage
// — so the resident footprint of the quantized weights is 1 byte per
// element plus the codebooks, not 16. The int result is the number of
// parameters bound to a codebook.
//
// The returned model is eval-only: training or reading a bound
// parameter's float values panics. Callers that need float weights (the
// extraction audit) should Import the retained rm separately. Evaluation
// is bit-identical to Import's dequantized model at any thread count (the
// kernel-level guarantee pinned by TestImportNativeBitIdenticalToImport).
func ImportNative(rm *ReleasedModel) (*nn.Model, int, error) {
	if len(rm.Quantized) == 0 {
		return nil, 0, fmt.Errorf("modelio: model has no quantized units; use Import for full-precision models")
	}
	m, ps, err := importDense(rm)
	if err != nil {
		return nil, 0, err
	}
	bound := 0
	for _, qu := range rm.Quantized {
		for pi, name := range qu.ParamNames {
			p, err := ps.claim(name, len(qu.Indices[pi]))
			if err != nil {
				return nil, 0, err
			}
			if !p.Weight {
				return nil, 0, fmt.Errorf("modelio: quantized parameter %q is not a weight; codebook-native eval covers weights only", name)
			}
			p.BindCodebook(qu.Levels, qu.Indices[pi])
			bound++
		}
	}
	if err := restoreBN(m.Net, rm.BNStats); err != nil {
		return nil, 0, err
	}
	return m, bound, nil
}

package attack

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/artifact"
	"repro/internal/img"
)

// Artifact codecs for the attack-side pipeline stages: the encoding plan
// the pre-processing stage produces, and the extraction report the final
// stage produces. Both are artifact.Codec formats.
const (
	planMagic   = "DACPLN1\n"
	reportMagic = "DACRPT1\n"
)

// ErrBadPlan reports that a stream is not an encoding-plan artifact.
var ErrBadPlan = errors.New("attack: bad magic (not an encoding plan)")

// ErrBadReport reports that a stream is not an extraction-report artifact.
var ErrBadReport = errors.New("attack: bad magic (not an extraction report)")

var (
	planCodec = artifact.Codec[Plan]{
		Magic: planMagic, Name: "attack: plan", BadMagic: ErrBadPlan, Check: validatePlan,
	}
	reportCodec = artifact.Codec[Report]{
		Magic: reportMagic, Name: "attack: report", BadMagic: ErrBadReport, Check: validateReport,
	}
)

// WritePlan serializes a pre-processing plan.
func WritePlan(w io.Writer, p *Plan) error { return planCodec.Write(w, p) }

// ReadPlan reads a plan artifact, verifying the magic header and the
// structural consistency of the payload.
func ReadPlan(r io.Reader) (*Plan, error) { return planCodec.Read(r) }

// validatePlan checks the invariants consumers (the regularizer, the
// quantizer, the decoder) index on.
func validatePlan(p *Plan) error {
	u := p.ImageGeom[0] * p.ImageGeom[1] * p.ImageGeom[2]
	if u <= 0 {
		return fmt.Errorf("attack: plan has invalid image geometry %v", p.ImageGeom)
	}
	for gi, g := range p.Groups {
		if g.GroupIndex < 0 || g.GroupIndex >= len(p.Groups) {
			return fmt.Errorf("attack: plan group %d has out-of-range index %d", gi, g.GroupIndex)
		}
		if len(g.Secret) != len(g.Images)*u {
			return fmt.Errorf("attack: plan group %d has %d secret values for %d images of %d pixels",
				gi, len(g.Secret), len(g.Images), u)
		}
		if len(g.DatasetIndices) != len(g.Images) {
			return fmt.Errorf("attack: plan group %d has %d dataset indices for %d images",
				gi, len(g.DatasetIndices), len(g.Images))
		}
		for _, im := range g.Images {
			if im == nil || im.NumPix() != u {
				return fmt.Errorf("attack: plan group %d holds an image that is not %v", gi, p.ImageGeom)
			}
		}
	}
	return nil
}

// Report is the serializable output of the extraction stage: the
// aggregate and per-group scores plus the reconstructed images, aligned
// with the plan's AllImages order. dacextract also caches Reports keyed
// on the released model's digest, with zero Scores when no ground truth
// was available.
type Report struct {
	// Score aggregates reconstruction quality over all encoded images.
	Score Score
	// PerGroup holds one score per non-empty encoding group.
	PerGroup []Score
	// Recon are the reconstructed images.
	Recon []*img.Image
}

// WriteReport serializes an extraction report.
func WriteReport(w io.Writer, rep *Report) error { return reportCodec.Write(w, rep) }

// ReadReport reads a report artifact, verifying the magic header and
// the structural consistency of the payload.
func ReadReport(r io.Reader) (*Report, error) { return reportCodec.Read(r) }

func validateReport(rep *Report) error {
	if rep.Score.N < 0 || rep.Score.N > len(rep.Score.MAPEs)+len(rep.Recon) {
		return fmt.Errorf("attack: report scores %d images, holds %d", rep.Score.N, len(rep.Recon))
	}
	for i, im := range rep.Recon {
		if im == nil || im.NumPix() == 0 || im.C*im.H*im.W != im.NumPix() {
			return fmt.Errorf("attack: report image %d is malformed", i)
		}
	}
	return nil
}

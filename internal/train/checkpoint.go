package train

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/artifact"
	"repro/internal/nn"
)

// ckMagic identifies a training-checkpoint artifact; the trailing digit is
// the format version.
const ckMagic = "DACCKP1\n"

// ErrBadCheckpoint reports that a stream is not a training checkpoint.
var ErrBadCheckpoint = errors.New("train: bad magic (not a training checkpoint)")

// checkpointCodec is the training-checkpoint format (DACCKP1), the store's
// model-state and epoch-checkpoint kinds.
var checkpointCodec = artifact.Codec[Checkpoint]{
	Magic: ckMagic, Name: "train: checkpoint", BadMagic: ErrBadCheckpoint, Check: validateCheckpoint,
}

// ValuesBlob is one named float vector (a parameter tensor's values or an
// optimizer state vector).
type ValuesBlob struct {
	Name   string
	Values []float64
}

// BNBlob carries one batch-norm layer's running statistics.
type BNBlob struct {
	Name    string
	RunMean []float64
	RunVar  []float64
}

// Checkpoint is a full mid-training snapshot: everything needed to resume
// a run so that the resumed run is bit-identical to an uninterrupted one.
//
// The RNG cursor is the Epoch field: the trainer's only randomness is one
// minibatch shuffle per epoch from a seed-determined stream, so replaying
// Epoch shuffles on resume advances the stream to exactly where the
// uninterrupted run's RNG would be. Optimizer state (momentum velocities)
// and batch-norm running statistics are captured exactly (float64 bits
// survive gob round trips), which the resume-equals-fresh determinism
// test pins.
type Checkpoint struct {
	// Epoch is the number of fully completed epochs — and the RNG cursor.
	Epoch int
	// Params holds every trainable parameter's values by name.
	Params []ValuesBlob
	// BN holds batch-norm running statistics by layer name.
	BN []BNBlob
	// Opt is the optimizer's per-parameter state.
	Opt OptimizerState
	// Stats are the completed epochs' statistics, so a resumed run's
	// Result carries the full epoch history.
	Stats []EpochStats
}

// Capture snapshots m and opt after `epoch` completed epochs. All values
// are deep-copied; the model may keep training afterwards.
func Capture(m *nn.Model, opt Optimizer, epoch int, stats []EpochStats) *Checkpoint {
	ck := &Checkpoint{Epoch: epoch, Stats: append([]EpochStats(nil), stats...)}
	for _, p := range m.Params() {
		ck.Params = append(ck.Params, ValuesBlob{
			Name:   p.Name,
			Values: append([]float64(nil), p.Value.Data()...),
		})
	}
	nn.Walk(m.Net, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			ck.BN = append(ck.BN, BNBlob{
				Name:    bn.Name(),
				RunMean: append([]float64(nil), bn.RunMean...),
				RunVar:  append([]float64(nil), bn.RunVar...),
			})
		}
	})
	if so, ok := opt.(StatefulOptimizer); ok {
		ck.Opt = so.ExportState(m.Params())
	}
	return ck
}

// Restore writes the checkpoint back into m and (when non-nil and
// stateful) opt. The model must have been built from the same
// architecture the checkpoint was captured from.
func (ck *Checkpoint) Restore(m *nn.Model, opt Optimizer) error {
	byName := map[string]*nn.Param{}
	for _, p := range m.Params() {
		byName[p.Name] = p
	}
	for _, blob := range ck.Params {
		p, ok := byName[blob.Name]
		if !ok {
			return fmt.Errorf("train: checkpoint has unknown parameter %q", blob.Name)
		}
		if p.NumEl() != len(blob.Values) {
			return fmt.Errorf("train: checkpoint parameter %q has %d values, model has %d",
				blob.Name, len(blob.Values), p.NumEl())
		}
		copy(p.Value.Data(), blob.Values)
	}
	bnByName := map[string]BNBlob{}
	for _, b := range ck.BN {
		bnByName[b.Name] = b
	}
	var bnErr error
	nn.Walk(m.Net, func(l nn.Layer) {
		bn, ok := l.(*nn.BatchNorm2D)
		if !ok || bnErr != nil {
			return
		}
		b, ok := bnByName[bn.Name()]
		if !ok {
			bnErr = fmt.Errorf("train: checkpoint missing batch-norm stats for %q", bn.Name())
			return
		}
		if len(b.RunMean) != len(bn.RunMean) {
			bnErr = fmt.Errorf("train: checkpoint batch-norm %q channel mismatch", bn.Name())
			return
		}
		copy(bn.RunMean, b.RunMean)
		copy(bn.RunVar, b.RunVar)
	})
	if bnErr != nil {
		return bnErr
	}
	if opt != nil && ck.Opt.Kind != "" {
		so, ok := opt.(StatefulOptimizer)
		if !ok {
			return fmt.Errorf("train: checkpoint has %q optimizer state but optimizer is stateless", ck.Opt.Kind)
		}
		if err := so.ImportState(m.Params(), ck.Opt); err != nil {
			return err
		}
	}
	return nil
}

// EncodeCheckpoint serializes ck to w: the magic header followed by a gob
// payload.
func EncodeCheckpoint(w io.Writer, ck *Checkpoint) error { return checkpointCodec.Write(w, ck) }

// DecodeCheckpoint reads a checkpoint from r, verifying the magic header
// and the structural consistency of the payload. Truncated or foreign
// streams return wrapped errors (io.ErrUnexpectedEOF, ErrBadCheckpoint) —
// never a panic.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) { return checkpointCodec.Read(r) }

// validateCheckpoint checks the structural invariants a well-formed
// checkpoint satisfies, so a corrupted artifact fails with a descriptive
// error instead of a panic in Restore.
func validateCheckpoint(ck *Checkpoint) error {
	if ck.Epoch < 0 {
		return fmt.Errorf("train: checkpoint has negative epoch %d", ck.Epoch)
	}
	if len(ck.Params) == 0 {
		return fmt.Errorf("train: checkpoint has no parameters")
	}
	for _, b := range ck.Params {
		if b.Name == "" || len(b.Values) == 0 {
			return fmt.Errorf("train: checkpoint parameter %q is empty", b.Name)
		}
	}
	for _, b := range ck.BN {
		if len(b.RunMean) != len(b.RunVar) {
			return fmt.Errorf("train: checkpoint batch-norm %q has %d means but %d variances",
				b.Name, len(b.RunMean), len(b.RunVar))
		}
	}
	return nil
}

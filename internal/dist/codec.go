package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
)

// Wire formats. Both are magic header + SHA-256 payload digest + gob
// payload, and each travels as the body of one length-prefixed frame on a
// session connection. The digest rejects corrupted bytes before gob gets
// to parse them (a gob error deep in a float slice is much harder to
// diagnose than "payload digest mismatch").
const (
	partialMagic = "DACGRD1\n"
	ctlMagic     = "DACCTL1\n"
)

// ErrBadPartial reports that a stream is not a gradient-partial artifact.
var ErrBadPartial = errors.New("dist: bad magic (not a gradient partial)")

// ErrBadCtl reports that a stream is not a control artifact.
var ErrBadCtl = errors.New("dist: bad magic (not a dist control message)")

// errFrameTooLarge reports a frame whose length prefix exceeds what the
// reader expects; the body is refused before it is allocated.
var errFrameTooLarge = errors.New("dist: frame exceeds its bound")

// maxCtlFrame bounds a control frame; a manifest encodes to ~200 bytes.
const maxCtlFrame = 4 << 10

// Partial is one shard's contribution to one optimizer step: the shard's
// flattened gradient (already reduced over the shard's samples in sample
// order, and already in global-mean scale), its data loss, and the batch
// moments of every batch-norm layer, concatenated per layer in walk order
// (C means then C variances per layer).
type Partial struct {
	// Token identifies the training run (all ranks derive it identically).
	Token string
	// Epoch, Step, and Shard position the partial: epoch index, step index
	// within the epoch, shard index within the step's batch.
	Epoch, Step, Shard int
	// Loss is the shard's data loss, scaled by 1/(global batch size) so
	// summing shard losses in shard order yields the batch's mean loss.
	Loss float64
	// Grad is the flattened per-parameter gradient (nn.Model.ReadGrads).
	Grad []float64
	// BNMoments concatenates every batch-norm layer's batch moments in
	// walk order: for each layer, C means followed by C variances.
	BNMoments []float64
}

// Manifest is the coordinator's "begin" announcement for one training run:
// every field a worker must agree on before exchanging partials. A worker
// validates its locally derived view against the manifest and fails fast
// on any mismatch — a configuration drift would otherwise surface as a
// rejected partial or, worse, a silently different model.
type Manifest struct {
	Token      string
	Procs      int
	Shards     int
	BatchSize  int
	Steps      int // optimizer steps per epoch
	Epochs     int
	StartEpoch int // first epoch to run (resume cursor; 0 for fresh runs)
	ParamCount int // total scalar parameter count
	Moments    int // batch-norm moment vector length of every partial
}

// maxPartialFrame bounds a partial frame of the run: gob spends at most 9
// bytes per float64; magic, digest, gob types and position fit in 1 KiB.
func maxPartialFrame(man *Manifest) int {
	return 1<<10 + len(man.Token) + 9*(man.ParamCount+man.Moments)
}

// ctl is the coordinator's one verdict per train-stage run, in DACCTL1:
// begin, carrying the manifest, or complete, when it served the run from
// its cache and workers load the result instead of training.
type ctl struct {
	Kind     string // "begin" or "complete"
	Manifest Manifest
}

// writeFrames writes each body behind its 4-byte big-endian length.
func writeFrames(w io.Writer, bodies ...[]byte) error {
	bufs := make(net.Buffers, 0, 2*len(bodies))
	for _, b := range bodies {
		bufs = append(bufs, binary.BigEndian.AppendUint32(nil, uint32(len(b))), b)
	}
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame reads one length-prefixed frame body of at most max bytes. A
// longer prefix is refused before anything is allocated for the body.
func readFrame(r io.Reader, max int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if uint64(n) > uint64(max) {
		return nil, fmt.Errorf("%w: %d bytes, at most %d expected", errFrameTooLarge, n, max)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("dist: truncated %d-byte frame: %w", n, err)
	}
	return body, nil
}

// encodeFramed returns magic + sha256(payload) + payload, where payload is
// v's gob encoding.
func encodeFramed(magic string, v any) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return nil, fmt.Errorf("dist: encode %T: %w", v, err)
	}
	sum := sha256.Sum256(payload.Bytes())
	return append(append([]byte(magic), sum[:]...), payload.Bytes()...), nil
}

// decodeFramed verifies b's magic and payload digest, then decodes the
// payload into v.
func decodeFramed(b []byte, magic string, badMagic error, v any) error {
	if !bytes.HasPrefix(b, []byte(magic)) {
		return fmt.Errorf("%w: header %q", badMagic, b[:min(len(b), len(magic))])
	}
	hdr := len(magic) + sha256.Size
	if len(b) < hdr {
		return fmt.Errorf("dist: truncated digest: %w", io.ErrUnexpectedEOF)
	}
	if sha256.Sum256(b[hdr:]) != [sha256.Size]byte(b[len(magic):hdr]) {
		return fmt.Errorf("dist: payload digest mismatch (%d bytes)", len(b)-hdr)
	}
	if err := gob.NewDecoder(bytes.NewReader(b[hdr:])).Decode(v); err != nil {
		return fmt.Errorf("dist: decode %T: %w", v, err)
	}
	return nil
}

// EncodePartial serializes p in the DACGRD1 format.
func EncodePartial(p *Partial) ([]byte, error) {
	if err := validatePartial(p); err != nil {
		return nil, err
	}
	return encodeFramed(partialMagic, p)
}

// DecodePartial parses a DACGRD1 partial, verifying the magic, the payload
// digest, and the structural invariants.
func DecodePartial(b []byte) (*Partial, error) {
	var p Partial
	if err := decodeFramed(b, partialMagic, ErrBadPartial, &p); err != nil {
		return nil, err
	}
	if err := validatePartial(&p); err != nil {
		return nil, err
	}
	return &p, nil
}

func validatePartial(p *Partial) error {
	if p.Token == "" {
		return fmt.Errorf("dist: partial has no token")
	}
	if p.Epoch < 0 || p.Step < 0 || p.Shard < 0 {
		return fmt.Errorf("dist: partial has negative position (%d,%d,%d)", p.Epoch, p.Step, p.Shard)
	}
	if len(p.Grad) == 0 {
		return fmt.Errorf("dist: partial has empty gradient")
	}
	return nil
}

// decodeCtl parses a DACCTL1 control message.
func decodeCtl(b []byte) (*ctl, error) {
	var c ctl
	if err := decodeFramed(b, ctlMagic, ErrBadCtl, &c); err != nil {
		return nil, err
	}
	if c.Kind != "begin" && c.Kind != "complete" {
		return nil, fmt.Errorf("dist: unknown control kind %q", c.Kind)
	}
	return &c, nil
}

package train

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
)

// TestResumeBitIdenticalToUninterrupted pins the checkpoint/resume
// guarantee: training N epochs with a checkpoint captured at epoch k, then
// restarting from that checkpoint on a FRESH model and optimizer, produces
// byte-equal final weights and losses to the uninterrupted run — for the
// serial path and a parallel execution context alike. This is what makes a
// crash at epoch 40 of 50 recoverable without losing determinism.
func TestResumeBitIdenticalToUninterrupted(t *testing.T) {
	x, y, build := convProblem()
	const epochs, ckAt = 4, 2

	for _, threads := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			full := func() ([]float64, []EpochStats) {
				m := build()
				res := Run(m, x, y, Config{
					Epochs: epochs, BatchSize: 8,
					Optimizer: NewSGD(0.05, 0.9, 0),
					Schedule:  StepDecay(0.05, 1, 0.5),
					ClipNorm:  5, Seed: 31, Threads: threads,
				})
				var flat []float64
				for _, p := range m.Params() {
					flat = append(flat, p.Value.Data()...)
				}
				return flat, res.Epochs
			}
			refW, refE := full()

			// Interrupted run: capture a checkpoint at epoch ckAt via the
			// hook, serialize it through the codec (as the artifact store
			// would), and throw the first model away.
			var raw []byte
			m1 := build()
			Run(m1, x, y, Config{
				Epochs: epochs, BatchSize: 8,
				Optimizer: NewSGD(0.05, 0.9, 0),
				Schedule:  StepDecay(0.05, 1, 0.5),
				ClipNorm:  5, Seed: 31, Threads: threads,
				CheckpointEvery: ckAt,
				Checkpoint: func(ck *Checkpoint) {
					if ck.Epoch != ckAt {
						return
					}
					var buf bytes.Buffer
					if err := EncodeCheckpoint(&buf, ck); err != nil {
						t.Errorf("encode: %v", err)
					}
					raw = buf.Bytes()
				},
			})
			if raw == nil {
				t.Fatal("checkpoint hook never fired at the target epoch")
			}

			ck, err := DecodeCheckpoint(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if ck.Epoch != ckAt || len(ck.Stats) != ckAt {
				t.Fatalf("checkpoint epoch %d with %d stats, want %d", ck.Epoch, len(ck.Stats), ckAt)
			}
			m2 := build()
			res := Run(m2, x, y, Config{
				Epochs: epochs, BatchSize: 8,
				Optimizer: NewSGD(0.05, 0.9, 0),
				Schedule:  StepDecay(0.05, 1, 0.5),
				ClipNorm:  5, Seed: 31, Threads: threads,
				Resume: ck,
			})
			var gotW []float64
			for _, p := range m2.Params() {
				gotW = append(gotW, p.Value.Data()...)
			}
			if len(gotW) != len(refW) {
				t.Fatalf("param count %d != %d", len(gotW), len(refW))
			}
			for i := range refW {
				if gotW[i] != refW[i] {
					t.Fatalf("weight[%d]: resumed %v != uninterrupted %v", i, gotW[i], refW[i])
				}
			}
			if len(res.Epochs) != len(refE) {
				t.Fatalf("epoch history %d != %d", len(res.Epochs), len(refE))
			}
			for i := range refE {
				if res.Epochs[i].DataLoss != refE[i].DataLoss || res.Epochs[i].LR != refE[i].LR {
					t.Fatalf("epoch %d stats differ: %+v vs %+v", i, res.Epochs[i], refE[i])
				}
			}
		})
	}
}

// TestResumeAcrossThreadCounts checks the orthogonality of the two knobs:
// a checkpoint captured under one thread count resumes bit-identically
// under another.
func TestResumeAcrossThreadCounts(t *testing.T) {
	x, y, build := convProblem()
	run := func(threads int, resume *Checkpoint, hook func(*Checkpoint)) []float64 {
		m := build()
		Run(m, x, y, Config{
			Epochs: 3, BatchSize: 8,
			Optimizer: NewSGD(0.05, 0.9, 0),
			Seed:      33, Threads: threads,
			Resume: resume, CheckpointEvery: 1, Checkpoint: hook,
		})
		var flat []float64
		for _, p := range m.Params() {
			flat = append(flat, p.Value.Data()...)
		}
		return flat
	}
	ref := run(1, nil, nil)
	var ck *Checkpoint
	run(4, nil, func(c *Checkpoint) {
		if c.Epoch == 1 {
			ck = c
		}
	})
	if ck == nil {
		t.Fatal("no checkpoint captured")
	}
	got := run(1, ck, nil)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("weight[%d]: cross-thread resume %v != serial %v", i, got[i], ref[i])
		}
	}
}

func captureSmall(t testing.TB) *Checkpoint {
	t.Helper()
	x, y, build := convProblem()
	m := build()
	opt := NewSGD(0.05, 0.9, 0)
	res := Run(m, x, y, Config{Epochs: 1, BatchSize: 8, Optimizer: opt, Seed: 35})
	return Capture(m, opt, 1, res.Epochs)
}

func encodeCk(t testing.TB, ck *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckpointCodecRoundTrip(t *testing.T) {
	ck := captureSmall(t)
	got, err := DecodeCheckpoint(bytes.NewReader(encodeCk(t, ck)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != ck.Epoch || len(got.Params) != len(ck.Params) || len(got.BN) != len(ck.BN) {
		t.Fatalf("round trip lost structure: %d/%d/%d vs %d/%d/%d",
			got.Epoch, len(got.Params), len(got.BN), ck.Epoch, len(ck.Params), len(ck.BN))
	}
	if got.Opt.Kind != "sgd" || got.Opt.slot("velocity") == nil {
		t.Fatalf("optimizer state lost: %+v", got.Opt)
	}
	for i := range ck.Params {
		for j := range ck.Params[i].Values {
			if got.Params[i].Values[j] != ck.Params[i].Values[j] {
				t.Fatalf("param %s[%d] not bit-exact", ck.Params[i].Name, j)
			}
		}
	}
	// Restoring onto a model/optimizer pair must reproduce the state.
	_, _, build := convProblem()
	m := build()
	opt := NewSGD(0.05, 0.9, 0)
	if err := got.Restore(m, opt); err != nil {
		t.Fatal(err)
	}
	var flat []float64
	for _, p := range m.Params() {
		flat = append(flat, p.Value.Data()...)
	}
	var want []float64
	for _, b := range ck.Params {
		want = append(want, b.Values...)
	}
	for i := range want {
		if flat[i] != want[i] {
			t.Fatalf("restored weight[%d] differs", i)
		}
	}
}

func TestCheckpointDecodeTruncatedFails(t *testing.T) {
	raw := encodeCk(t, captureSmall(t))
	for _, n := range []int{0, 3, len(ckMagic), len(ckMagic) + 7, len(raw) / 2, len(raw) - 1} {
		if _, err := DecodeCheckpoint(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation at %d bytes: expected error", n)
		}
	}
	if _, err := DecodeCheckpoint(bytes.NewReader(raw[:4])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("header truncation error = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestCheckpointDecodeBadMagicFails(t *testing.T) {
	raw := encodeCk(t, captureSmall(t))
	raw[0] ^= 0xff
	if _, err := DecodeCheckpoint(bytes.NewReader(raw)); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("error = %v, want ErrBadCheckpoint", err)
	}
}

func TestCheckpointDecodeFlippedByteFails(t *testing.T) {
	raw := encodeCk(t, captureSmall(t))
	// Flip a byte mid-payload: gob either errors or the structural
	// validation catches the damage; a panic is the only failure.
	for _, off := range []int{len(ckMagic) + 1, len(raw) / 3, 2 * len(raw) / 3} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x40
		ck, err := DecodeCheckpoint(bytes.NewReader(mut))
		if err == nil && ck == nil {
			t.Fatalf("flip at %d: nil checkpoint without error", off)
		}
	}
}

func TestCheckpointRestoreRejectsMismatch(t *testing.T) {
	ck := captureSmall(t)
	_, _, build := convProblem()

	bad := *ck
	bad.Params = append([]ValuesBlob(nil), ck.Params...)
	bad.Params[0] = ValuesBlob{Name: "no.such.param", Values: []float64{1}}
	if err := bad.Restore(build(), nil); err == nil {
		t.Fatal("unknown parameter accepted")
	}

	bad2 := *ck
	bad2.Params = append([]ValuesBlob(nil), ck.Params...)
	bad2.Params[0] = ValuesBlob{Name: ck.Params[0].Name, Values: ck.Params[0].Values[:1]}
	if err := bad2.Restore(build(), nil); err == nil {
		t.Fatal("short parameter accepted")
	}
}

func TestOptimizerStateKindMismatch(t *testing.T) {
	_, _, build := convProblem()
	m := build()
	sgd := NewSGD(0.1, 0.9, 0)
	st := sgd.ExportState(m.Params())
	if err := NewAdam(0.01).ImportState(m.Params(), st); err == nil {
		t.Fatal("Adam accepted SGD state")
	}
	if err := sgd.ImportState(m.Params(), OptimizerState{Kind: "adam"}); err == nil {
		t.Fatal("SGD accepted Adam state")
	}
}

func TestAdamStateRoundTrip(t *testing.T) {
	x, y, build := convProblem()
	run := func(resume *Checkpoint, epochs int) ([]float64, *Checkpoint) {
		m := build()
		opt := NewAdam(0.01)
		res := Run(m, x, y, Config{
			Epochs: epochs, BatchSize: 8, Optimizer: opt, Seed: 37, Resume: resume,
		})
		var flat []float64
		for _, p := range m.Params() {
			flat = append(flat, p.Value.Data()...)
		}
		return flat, Capture(m, opt, epochs, res.Epochs)
	}
	ref, _ := run(nil, 2)
	_, ck := run(nil, 1)
	raw := encodeCk(t, ck)
	ck2, err := DecodeCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := run(ck2, 2)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("adam resume weight[%d]: %v != %v", i, got[i], ref[i])
		}
	}
}

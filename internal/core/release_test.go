package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/modelio"
)

// smokeReleaseDigest is the sha256 of the smoke release file: dacrelease
// -n 128 -epochs 2 -seed 7, the release every benchmark set-up trains. A
// kernel change that moves one bit of training, quantization or
// fine-tuning moves this digest; the same bytes must come out at every
// thread count.
const smokeReleaseDigest = "6a7405343a40dba3e0da1ecfee2c949da3dc5eef62814b6154b19df1f9be8e48"

// smokeConfig is dacrelease's configuration at smoke scale: the
// CIFARRelease preset on 128 samples, 2 epochs at batch 32, λ=10,
// Algorithm 1 at 4 bits and 3 fine-tune epochs.
func smokeConfig(threads int) Config {
	p := CIFARRelease()
	return Config{
		Data:        dataset.SyntheticCIFAR(p.DataConfig(128, 7)),
		ModelCfg:    p.ArchConfig(1),
		GroupBounds: p.GroupBounds,
		Lambdas:     p.Lambdas(10),
		WindowLen:   p.WindowLen,
		Epochs:      2, BatchSize: 32, LR: 0.05, Momentum: 0.9, ClipNorm: 5,
		Quant: QuantTargetCorrelated, Bits: 4,
		FineTuneEpochs: 3, KeepRegDuringFineTune: true,
		Seed: 7, Threads: threads,
	}
}

// smokeRelease runs the smoke flow and returns the release file's bytes.
func smokeRelease(t testing.TB, threads int) []byte {
	t.Helper()
	cfg := smokeConfig(threads)
	res := Run(cfg)
	rm, err := modelio.Export(res.Model, cfg.ModelCfg, res.Applied)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := modelio.Write(&buf, rm); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var (
	serialSmokeOnce sync.Once
	serialSmoke     []byte
)

// serialSmokeRelease is smokeRelease at one thread, trained once per test
// binary and shared by the tests that need a real quantized release.
func serialSmokeRelease(t testing.TB) []byte {
	serialSmokeOnce.Do(func() { serialSmoke = smokeRelease(t, 1) })
	return serialSmoke
}

func TestSmokeReleaseDigest(t *testing.T) {
	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			var raw []byte
			if threads == 1 {
				raw = serialSmokeRelease(t)
			} else {
				raw = smokeRelease(t, threads)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != smokeReleaseDigest {
				t.Fatalf("smoke release digest %s, pinned %s", got, smokeReleaseDigest)
			}
		})
	}
}

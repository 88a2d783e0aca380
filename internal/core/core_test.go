package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
)

// smallData returns a fast CIFAR-like dataset for integration tests.
func smallData(rgb bool, seed int64) *dataset.Dataset {
	return dataset.SyntheticCIFAR(dataset.CIFARConfig{
		N: 400, Classes: 10, H: 12, W: 12, RGB: rgb, Seed: seed,
		ContrastStd: 0.32, NoiseStd: 25, TemplateShare: 0.6,
	})
}

func smallModel(channels int) nn.ResNetConfig {
	return nn.ResNetConfig{
		InC: channels, InH: 12, InW: 12, Classes: 10,
		Widths: []int{4, 8, 16}, Blocks: []int{1, 1, 1}, Seed: 1,
	}
}

func fastCfg(d *dataset.Dataset, model nn.ResNetConfig) Config {
	return Config{
		Data: d, ModelCfg: model,
		Epochs: 6, BatchSize: 32, LR: 0.05, Momentum: 0.9, ClipNorm: 5,
		Seed: 1,
	}
}

func TestBenignRun(t *testing.T) {
	d := smallData(false, 1)
	res := Run(fastCfg(d, smallModel(1)))
	if res.Plan != nil || res.Reg != nil {
		t.Fatal("benign run must have no plan or regularizer")
	}
	if res.TestAcc <= 0.15 {
		t.Fatalf("benign accuracy %v barely above chance", res.TestAcc)
	}
	if res.Applied != nil {
		t.Fatal("QuantNone must not quantize")
	}
	if res.TestAcc != res.PreQuantTestAcc {
		t.Fatal("unquantized accuracies must match")
	}
}

func TestVanillaAttackRun(t *testing.T) {
	d := smallData(false, 2)
	cfg := fastCfg(d, smallModel(1))
	cfg.Lambdas = []float64{5}
	res := Run(cfg)
	if res.Plan == nil || res.Reg == nil {
		t.Fatal("malicious run must build a plan and regularizer")
	}
	if res.Plan.TotalImages() == 0 {
		t.Fatal("no images encoded")
	}
	if len(res.Recon) != res.Plan.TotalImages() {
		t.Fatalf("reconstructed %d of %d images", len(res.Recon), res.Plan.TotalImages())
	}
	if res.Score.N == 0 {
		t.Fatal("no score computed")
	}
}

func TestProposedFlowRun(t *testing.T) {
	d := smallData(false, 3)
	cfg := fastCfg(d, smallModel(1))
	cfg.GroupBounds = []int{4, 6}
	cfg.Lambdas = []float64{0, 0, 10}
	cfg.WindowLen = 5
	cfg.Quant = QuantTargetCorrelated
	cfg.Bits = 4
	cfg.FineTuneEpochs = 1
	cfg.KeepRegDuringFineTune = true
	res := Run(cfg)
	if res.Applied == nil {
		t.Fatal("quantization record missing")
	}
	// The released model must actually be 16-valued per unit.
	for name, n := range res.Applied.UniqueValues() {
		if n > 16 {
			t.Fatalf("unit %s has %d distinct values after 4-bit quantization", name, n)
		}
	}
	// Zero-lambda groups carry no images.
	if len(res.Plan.Groups[0].Images) != 0 || len(res.Plan.Groups[1].Images) != 0 {
		t.Fatal("early groups must carry no payload")
	}
	if len(res.Plan.Groups[2].Images) == 0 {
		t.Fatal("encoding group carries no payload")
	}
	// Window respected.
	for _, im := range res.Plan.Groups[2].Images {
		s := im.Std()
		if s <= res.Plan.Window.Lo || s >= res.Plan.Window.Hi {
			t.Fatalf("target std %v outside window (%v, %v)", s, res.Plan.Window.Lo, res.Plan.Window.Hi)
		}
	}
}

func TestWEQQuantRun(t *testing.T) {
	d := smallData(false, 4)
	cfg := fastCfg(d, smallModel(1))
	cfg.Lambdas = []float64{3}
	cfg.Quant = QuantWEQ
	cfg.Bits = 6
	cfg.FineTuneEpochs = 1
	res := Run(cfg)
	if res.Applied == nil {
		t.Fatal("WEQ record missing")
	}
	for name, n := range res.Applied.UniqueValues() {
		if n > 64 {
			t.Fatalf("unit %s has %d distinct values at 6 bits", name, n)
		}
	}
}

func TestLinearQuantRun(t *testing.T) {
	d := smallData(false, 5)
	cfg := fastCfg(d, smallModel(1))
	cfg.Quant = QuantLinear
	cfg.Bits = 4
	res := Run(cfg)
	if res.Applied == nil {
		t.Fatal("linear quantization record missing")
	}
}

func TestRGBRun(t *testing.T) {
	d := smallData(true, 6)
	cfg := fastCfg(d, smallModel(3))
	cfg.Lambdas = []float64{5}
	res := Run(cfg)
	if res.Plan.ImageGeom != [3]int{3, 12, 12} {
		t.Fatalf("RGB geometry %v", res.Plan.ImageGeom)
	}
}

func TestTargetCorrelatedWithoutPlanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d := smallData(false, 8)
	cfg := fastCfg(d, smallModel(1))
	cfg.Quant = QuantTargetCorrelated
	Run(cfg)
}

func TestMissingDataPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(Config{})
}

func TestLambdaCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d := smallData(false, 9)
	cfg := fastCfg(d, smallModel(1))
	cfg.Lambdas = []float64{1, 2, 3} // no GroupBounds → 1 group
	Run(cfg)
}

func TestQuantModeString(t *testing.T) {
	for m, want := range map[QuantMode]string{
		QuantNone: "none", QuantWEQ: "weq", QuantLinear: "linear",
		QuantTargetCorrelated: "target-correlated",
	} {
		if m.String() != want {
			t.Fatalf("QuantMode(%d).String() = %q", int(m), m.String())
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	d := smallData(false, 10)
	cfg := fastCfg(d, smallModel(1))
	cfg.Lambdas = []float64{5}
	a := Run(cfg)
	b := Run(cfg)
	if a.TestAcc != b.TestAcc || a.Score.MeanMAPE != b.Score.MeanMAPE {
		t.Fatalf("runs not deterministic: %v/%v vs %v/%v",
			a.TestAcc, a.Score.MeanMAPE, b.TestAcc, b.Score.MeanMAPE)
	}
}

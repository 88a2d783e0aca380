package quantize

import "testing"

func TestPruneMagnitudeSparsity(t *testing.T) {
	m := testModel(31)
	PruneMagnitude(m.WeightParams(), 0.5)
	zeros := 0
	total := 0
	for _, p := range m.WeightParams() {
		for _, v := range p.Value.Data() {
			if v == 0 {
				zeros++
			}
			total++
		}
	}
	if got := float64(zeros) / float64(total); got < 0.45 || got > 0.55 {
		t.Fatalf("zero fraction %v, want ≈0.5", got)
	}
}

func TestPrunePreservesLargeWeights(t *testing.T) {
	m := testModel(32)
	// Find the largest-magnitude weight.
	var maxV float64
	for _, p := range m.WeightParams() {
		for _, v := range p.Value.Data() {
			if a := abs(v); a > maxV {
				maxV = a
			}
		}
	}
	PruneMagnitude(m.WeightParams(), 0.8)
	found := false
	for _, p := range m.WeightParams() {
		for _, v := range p.Value.Data() {
			if abs(v) == maxV {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("pruning removed the largest weight")
	}
}

func TestPruneBadSparsityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PruneMagnitude(nil, 1.0)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

package attack

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/dataset"
	"repro/internal/img"
	"repro/internal/nn"
)

// planFixture builds a real plan over a small dataset and model.
func planFixture(t testing.TB) *Plan {
	t.Helper()
	d := dataset.SyntheticCIFAR(dataset.CIFARConfig{
		N: 120, Classes: 10, H: 12, W: 12, Seed: 5,
		ContrastStd: 0.32, NoiseStd: 25, TemplateShare: 0.6,
	})
	m := nn.NewResNet(nn.ResNetConfig{
		InC: 1, InH: 12, InW: 12, Classes: 10,
		Widths: []int{4, 8, 16}, Blocks: []int{1, 1, 1}, Seed: 6,
	})
	groups := m.GroupsByConvIndex([]int{4, 6})
	p := BuildPlan(d, 5, groups, []float64{0, 0, 10}, 7)
	if p.TotalImages() == 0 {
		t.Fatal("fixture plan carries no images")
	}
	return p
}

func encodePlanBytes(t testing.TB, p *Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPlanCodecRoundTrip(t *testing.T) {
	p := planFixture(t)
	got, err := ReadPlan(bytes.NewReader(encodePlanBytes(t, p)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Window != p.Window || got.ImageGeom != p.ImageGeom || len(got.Groups) != len(p.Groups) {
		t.Fatalf("plan structure lost: %+v vs %+v", got.Window, p.Window)
	}
	for gi := range p.Groups {
		a, b := p.Groups[gi], got.Groups[gi]
		if a.Lambda != b.Lambda || len(a.Images) != len(b.Images) {
			t.Fatalf("group %d mismatch", gi)
		}
		for i := range a.Secret {
			if a.Secret[i] != b.Secret[i] {
				t.Fatalf("group %d secret[%d] not bit-exact", gi, i)
			}
		}
		for i := range a.Images {
			for j := range a.Images[i].Pix {
				if a.Images[i].Pix[j] != b.Images[i].Pix[j] {
					t.Fatalf("group %d image %d pixel %d differs", gi, i, j)
				}
			}
		}
	}
}

func TestPlanDecodeTruncatedFails(t *testing.T) {
	raw := encodePlanBytes(t, planFixture(t))
	for _, n := range []int{0, 3, len(planMagic), len(planMagic) + 9, len(raw) / 2, len(raw) - 1} {
		if _, err := ReadPlan(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation at %d bytes: expected error", n)
		}
	}
	if _, err := ReadPlan(bytes.NewReader(raw[:2])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("header truncation error = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestPlanDecodeBadMagicFails(t *testing.T) {
	raw := encodePlanBytes(t, planFixture(t))
	raw[1] ^= 0xff
	if _, err := ReadPlan(bytes.NewReader(raw)); !errors.Is(err, ErrBadPlan) {
		t.Fatalf("error = %v, want ErrBadPlan", err)
	}
}

func TestPlanDecodeFlippedByteFails(t *testing.T) {
	raw := encodePlanBytes(t, planFixture(t))
	for _, off := range []int{len(planMagic) + 2, len(raw) / 3, 2 * len(raw) / 3} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x20
		p, err := ReadPlan(bytes.NewReader(mut))
		if err == nil && p == nil {
			t.Fatalf("flip at %d: nil plan without error", off)
		}
	}
}

func TestPlanEncodeRejectsInconsistent(t *testing.T) {
	p := planFixture(t)
	p.Groups[2].Secret = p.Groups[2].Secret[:len(p.Groups[2].Secret)-1]
	if err := WritePlan(io.Discard, p); err == nil {
		t.Fatal("secret/image mismatch accepted")
	}
	p2 := planFixture(t)
	p2.ImageGeom = [3]int{0, 0, 0}
	if err := WritePlan(io.Discard, p2); err == nil {
		t.Fatal("zero geometry accepted")
	}
}

func reportFixture() *Report {
	rep := &Report{}
	for i := 0; i < 3; i++ {
		im := img.New(1, 4, 4)
		for j := range im.Pix {
			im.Pix[j] = float64((i*16 + j) % 256)
		}
		rep.Recon = append(rep.Recon, im)
	}
	rep.Score = Score{N: 3, MeanMAPE: 12.5, Recognizable: 2, MAPEs: []float64{10, 12, 15.5}, SSIMs: []float64{0.7, 0.6, 0.4}}
	rep.PerGroup = []Score{rep.Score}
	return rep
}

func encodeReportBytes(t testing.TB, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReportCodecRoundTrip(t *testing.T) {
	rep := reportFixture()
	got, err := ReadReport(bytes.NewReader(encodeReportBytes(t, rep)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Score.N != rep.Score.N || got.Score.MeanMAPE != rep.Score.MeanMAPE ||
		len(got.PerGroup) != len(rep.PerGroup) || len(got.Recon) != len(rep.Recon) {
		t.Fatalf("report structure lost: %+v", got.Score)
	}
	for i := range rep.Recon {
		for j := range rep.Recon[i].Pix {
			if got.Recon[i].Pix[j] != rep.Recon[i].Pix[j] {
				t.Fatalf("recon %d pixel %d differs", i, j)
			}
		}
	}
}

func TestReportDecodeCorruptFails(t *testing.T) {
	raw := encodeReportBytes(t, reportFixture())
	for _, n := range []int{0, 4, len(reportMagic) + 3, len(raw) - 1} {
		if _, err := ReadReport(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation at %d bytes: expected error", n)
		}
	}
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xff
	if _, err := ReadReport(bytes.NewReader(bad)); !errors.Is(err, ErrBadReport) {
		t.Fatalf("error = %v, want ErrBadReport", err)
	}
	for _, off := range []int{len(reportMagic) + 1, len(raw) / 2} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x10
		rep, err := ReadReport(bytes.NewReader(mut))
		if err == nil && rep == nil {
			t.Fatalf("flip at %d: nil report without error", off)
		}
	}
	// A plan artifact is not a report (cross-kind magic confusion).
	if _, err := ReadReport(bytes.NewReader(encodePlanBytes(t, planFixture(t)))); !errors.Is(err, ErrBadReport) {
		t.Fatalf("plan accepted as report: %v", err)
	}
}

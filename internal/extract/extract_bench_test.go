package extract

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/modelio"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/train"
)

// emitBench, when set to a path, makes TestEmitExtractBench run the
// extraction attack against a live defended server and write the
// per-defense fidelity numbers there as JSON. Wired to `make
// extract-bench`.
var emitBench = flag.String("emit-bench", "", "write extraction-vs-defense report (BENCH_extract.json) to this path")

// extractBenchReport is the BENCH_extract.json schema: one attack run per
// serving defense, at the same query budget.
type extractBenchReport struct {
	// Preset documents the victim: the shared CIFAR release preset.
	Preset string `json:"preset"`
	// VictimAcc is the victim's own test accuracy (the ceiling being
	// stolen).
	VictimAcc float64 `json:"victim_test_acc"`
	Budget    int     `json:"budget"`
	Strategy  string  `json:"strategy"`
	// Rows is one attack run per defense; the first row is undefended.
	Rows []extractBenchRow `json:"rows"`
	// MaxDropPoints is the largest top-1 agreement drop (in points, 0-100)
	// any single defense bought relative to the undefended row.
	MaxDropPoints float64 `json:"max_drop_points"`
	// BestDefense names the row that bought MaxDropPoints.
	BestDefense string `json:"best_defense"`
}

type extractBenchRow struct {
	// Defense names the row; Policy is the serving policy JSON applied.
	Defense string        `json:"defense"`
	Policy  serve.Policy  `json:"policy"`
	Report  Report        `json:"report"`
	Elapsed time.Duration `json:"elapsed_ns"`
	// DropPoints is the agreement lost versus the undefended row, in
	// points.
	DropPoints float64 `json:"drop_points"`
}

// TestEmitExtractBench runs the full attack-vs-defense matrix on the CIFAR
// release preset: train a victim, serve it, extract a surrogate undefended
// and under each serving defense at the same query budget. Guards pin the
// headline claims: the undefended attack reaches >= 80% top-1 agreement,
// and at least one defense cuts agreement by >= 10 points.
func TestEmitExtractBench(t *testing.T) {
	if *emitBench == "" {
		t.Skip("run via make extract-bench (needs -emit-bench=<path>)")
	}
	preset := core.CIFARRelease()
	threads := runtime.GOMAXPROCS(0)

	// One synthetic distribution (the class templates are drawn from the
	// dataset seed), partitioned into disjoint victim-training, attacker
	// pool, and held-out evaluation slices. The attacker knowing the
	// in-distribution pool — but not the victim's samples or labels — is
	// exactly the paper-era extraction threat model.
	const victimN, poolN, evalN = 2000, 2000, 600
	full := dataset.SyntheticCIFAR(preset.DataConfig(victimN+poolN+evalN, 123))
	fx, fy := full.Tensors()
	vx, vy := sliceRows(fx, fy, 0, victimN)
	px, _ := sliceRows(fx, fy, victimN, victimN+poolN)
	testX, testY := sliceRows(fx, fy, victimN+poolN, victimN+poolN+evalN)

	// The victim: trained on its private slice with the experiments'
	// recipe, exported and served like a production release.
	victim := nn.NewResNet(preset.ArchConfig(31))
	train.Run(victim, vx, vy, train.Config{
		Epochs: 25, BatchSize: 32, Optimizer: train.NewSGD(0.05, 0.9, 0),
		Schedule: train.StepDecay(0.05, 8, 0.3),
		ClipNorm: 5, Seed: 32, Threads: threads,
	})
	rm, err := modelio.Export(victim, preset.ArchConfig(31), nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "victim.bin")
	if err := modelio.Save(path, rm); err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(serve.Options{
		MaxBatch: 16, QueueDepth: 256,
		Threads: threads, Obs: obs.NewRegistry(),
	})
	defer reg.Close()
	if _, err := reg.LoadFile("prod", path); err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(reg, nil)
	srv.SetReady()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The attacker's pool as prior-strategy rows.
	pool := rowsOf(px)

	const budget = 2000
	baseCfg := Config{
		Budget: budget, BatchSize: 64, Strategy: NewPrior(pool), Seed: 7,
		Surrogate: preset.ArchConfig(99), Epochs: 20, LR: 0.003,
		TrainBatch: 32, Threads: threads,
	}

	rep := extractBenchReport{
		Preset: "cifar-release", Budget: budget, Strategy: "prior",
	}
	defenses := []struct {
		name   string
		policy serve.Policy
	}{
		{"none", serve.Policy{}},
		{"round1", serve.Policy{Round: 1}},
		{"top1", serve.Policy{Mode: serve.PolicyTop1}},
		{"label", serve.Policy{Mode: serve.PolicyLabel}},
		{"budget250", serve.Policy{QueryBudget: 250}},
	}
	for _, d := range defenses {
		if err := reg.SetPolicy("prod", d.policy); err != nil {
			t.Fatal(err)
		}
		// A fresh client identity per row: each attack faces a fresh
		// per-client budget ledger, like distinct real attackers would.
		client := NewClient(ts.URL, "prod", "bench-"+d.name)
		start := time.Now()
		r, _, err := Run(client, victim, testX, testY, baseCfg)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		row := extractBenchRow{Defense: d.name, Policy: d.policy, Report: *r, Elapsed: time.Since(start)}
		rep.Rows = append(rep.Rows, row)
		rep.VictimAcc = r.VictimAcc
		t.Logf("%-10s agreement=%.3f surrogate_acc=%.3f harvested=%d soft=%v mode=%q (%.1fs)",
			d.name, r.Agreement, r.SurrogateAcc, r.Harvested, r.SoftLabels, r.Mode, time.Since(start).Seconds())
	}
	undefended := rep.Rows[0].Report.Agreement
	for i := range rep.Rows {
		drop := (undefended - rep.Rows[i].Report.Agreement) * 100
		rep.Rows[i].DropPoints = drop
		if i > 0 && drop > rep.MaxDropPoints {
			rep.MaxDropPoints = drop
			rep.BestDefense = rep.Rows[i].Defense
		}
	}

	// The headline guards: extraction works undefended, and at least one
	// defense blunts it by >= 10 agreement points at the same budget.
	if undefended < 0.80 {
		t.Errorf("undefended agreement %.3f < 0.80: the attack itself regressed", undefended)
	}
	if rep.MaxDropPoints < 10 {
		t.Errorf("best defense (%s) cut agreement by only %.1f points, want >= 10",
			rep.BestDefense, rep.MaxDropPoints)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*emitBench, append(enc, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("extract bench written to %s (undefended %.3f, best defense %s: -%.1f points)\n",
		*emitBench, undefended, rep.BestDefense, rep.MaxDropPoints)
}

// sliceRows copies rows [lo, hi) of x and the matching labels into a fresh
// tensor, partitioning one dataset into disjoint same-distribution slices.
func sliceRows(x *tensor.Tensor, y []int, lo, hi int) (*tensor.Tensor, []int) {
	sample := len(x.Data()) / x.Dim(0)
	out := tensor.New(hi-lo, sample)
	copy(out.Data(), x.Data()[lo*sample:hi*sample])
	labels := make([]int, hi-lo)
	copy(labels, y[lo:hi])
	return out, labels
}

// rowsOf flattens a pixel tensor into per-sample rows.
func rowsOf(x *tensor.Tensor) [][]float64 {
	n := x.Dim(0)
	d := x.Data()
	sample := len(d) / n
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = d[i*sample : (i+1)*sample]
	}
	return rows
}

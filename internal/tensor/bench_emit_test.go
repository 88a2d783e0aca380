package tensor

import (
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
)

// emitBench, when set to a path, makes TestEmitKernelsBench time the naive
// reference kernels against the production kernels on both accum paths,
// and write GFLOP/s per shape there as JSON. Wired to `make kernels-bench`;
// empty (the default) skips the test so the regular suite stays fast and
// timing-free.
var emitBench = flag.String("emit-bench", "", "write kernel throughput numbers (BENCH_kernels.json) to this path")

type kernelPoint struct {
	Kernel      string  `json:"kernel"`
	Layer       string  `json:"layer"`
	M           int     `json:"m"`
	K           int     `json:"k"`
	N           int     `json:"n"`
	NaiveGFLOPS float64 `json:"naive_gflops"`
	GoGFLOPS    float64 `json:"go_gflops"`
	AVX2GFLOPS  float64 `json:"avx2_gflops,omitempty"`
}

type kernelReport struct {
	Threads int           `json:"threads"`
	AVX2    bool          `json:"avx2"`
	Notes   string        `json:"notes"`
	Points  []kernelPoint `json:"points"`
}

// gflops times fn (one full m×k×n product per call) and converts the best
// observed ns/op into GFLOP/s, counting 2 flops per multiply-accumulate.
func gflops(m, k, n int, fn func()) float64 {
	best := math.MaxFloat64
	for r := 0; r < 3; r++ {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
		if v := float64(res.NsPerOp()); v < best {
			best = v
		}
	}
	return 2 * float64(m) * float64(k) * float64(n) / best
}

// releaseLayers are the convolution shapes of the CIFARRelease
// architecture's three stages, per sample: OutC, ColRows (inC·3·3) and
// spatial positions.
var releaseLayers = []struct {
	name                   string
	outC, colRows, spatial int
}{
	{"stage1", 6, 54, 144},
	{"stage2", 12, 108, 36},
	{"stage3", 24, 216, 9},
}

func TestEmitKernelsBench(t *testing.T) {
	if *emitBench == "" {
		t.Skip("pass -emit-bench=<path> (make kernels-bench) to measure kernel throughput")
	}
	defer func(old bool) { useAVX2 = old }(useAVX2)
	rng := rand.New(rand.NewSource(51))
	rep := kernelReport{
		Threads: runtime.GOMAXPROCS(0),
		AVX2:    haveAVX2,
		Notes: "single-core kernel throughput at the release architecture's " +
			"per-sample convolution products: forward W·col, dcol = Wᵀ·g and " +
			"dW = g·colᵀ (no skip; its reference is the dot form over col). " +
			"The Go and AVX2 columns are the production kernels on each accum " +
			"path; both stay bit-identical to naive (TestBlockedKernelsBitIdentical, FuzzKernels)",
	}
	for _, l := range releaseLayers {
		o, c, s := l.outC, l.colRows, l.spatial
		w := make([]float64, o*c)
		col := make([]float64, c*s)
		g := make([]float64, o*s)
		for _, op := range [][]float64{w, col, g} {
			fillCases(rng, op, 0)
		}
		colT := transposeOf(col, c, s)
		dst := make([]float64, max(o*s, c*s, o*c))
		var rows, cols Runs
		rows.ScanRows(DenseWeights(w), o, c)
		cols.ScanCols(w, o, c)
		forms := []struct {
			kernel  string
			m, k, n int
			naive   func()
			prod    func()
		}{
			{"forward", o, c, s,
				func() { matmulNaive(dst[:o*s], w, col, o, c, s) },
				func() { matmulRuns(dst[:o*s], w, &rows, col, o, c, s) }},
			{"dcol", c, o, s,
				func() { tmatmulNaive(dst[:c*s], w, g, o, c, s) },
				func() { tmatmulBlocked(dst[:c*s], w, &cols, g, o, c, s) }},
			{"dW", o, s, c,
				func() { matmulTNaive(dst[:o*c], g, col, o, s, c) },
				func() { matmulNoSkip(dst[:o*c], g, colT, o, s, c) }},
		}
		for _, f := range forms {
			p := kernelPoint{Kernel: f.kernel, Layer: l.name, M: f.m, K: f.k, N: f.n}
			p.NaiveGFLOPS = gflops(f.m, f.k, f.n, f.naive)
			useAVX2 = false
			p.GoGFLOPS = gflops(f.m, f.k, f.n, f.prod)
			if haveAVX2 {
				useAVX2 = true
				p.AVX2GFLOPS = gflops(f.m, f.k, f.n, f.prod)
			}
			t.Logf("%-7s %s %3dx%3dx%3d: naive %.2f, go %.2f, avx2 %.2f GFLOP/s",
				p.Kernel, p.Layer, p.M, p.K, p.N, p.NaiveGFLOPS, p.GoGFLOPS, p.AVX2GFLOPS)
			rep.Points = append(rep.Points, p)
		}
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*emitBench, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", *emitBench)
}

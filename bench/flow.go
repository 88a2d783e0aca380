package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/modelio"
	"repro/internal/obs"
)

// flowScale sizes one run of the paper's flow. Everything else is fixed at
// the dacrelease defaults (CIFARRelease preset, batch 32, λ=10 on the last
// group, Algorithm 1 at 4 bits, 3 fine-tune epochs).
type flowScale struct {
	N, Epochs int
	// MinRecog and MinSSIM are payload quality floors every release at this
	// scale must meet (zero: no floor). They catch an attack that silently
	// stopped working; the digest checks catch any other change.
	MinRecog, MinSSIM float64
}

var (
	// measuredFlow is the flow every repetition runs: dacrelease with its
	// defaults but 256 samples instead of 800, so that a repetition takes
	// about 6 s on the 2-core host and a run holds enough of them for a
	// median. The time is spent as in the full flow (train forward and
	// backward), and the attack still works: over seeds 1-20 the payload's
	// SSIM is 0.90-0.97 and its recognizable share 0.61-1.0, where a flow
	// trained too briefly for the attack to work scores about 0.46 and 0.
	// Test accuracy (0.14-0.46 over 50 test images) has no floor: at this
	// size it does not separate a working model from chance.
	measuredFlow = flowScale{N: 256, Epochs: 15, MinRecog: 0.5, MinSSIM: 0.85}
	// smokeFlow is the release every set-up trains (dacrelease -n 128
	// -epochs 2): the serving workloads serve it, it costs what the full
	// release costs to serve, and it takes about a second to train.
	smokeFlow = flowScale{N: 128, Epochs: 2}
)

const fineTuneEpochs = 3

// goldenSeed and goldenDigests pin the measured flow's release bytes:
// dacrelease -n 256 -seed 7 produces the flow-cold digest, and dacrelease
// -n 256 -seed 7 -procs 2 (or -shards 2 in one process) the flow-dp2 one.
const goldenSeed = 7

var goldenDigests = map[string]string{
	"flow-cold": "1c48d0e678a812756bb90d98acf034a8488e4b7827bd23e907159d332270628d",
	"flow-dp2":  "d4251dfe21320a26400103c01dfee8d342dadb4cc90ae4e71be8d8093f4b3b48",
}

// flowConfig is dacrelease's core.Config at the given scale, with the
// dataset synthesized from seed, computing on one thread. Results do not
// depend on the thread count; timings do: on the shared 2-core host, over
// the same ten runs, passes split across both cores (dacrelease's default)
// read 0.17 apart (interquartile distance over median), flow-dp2's two
// single-thread processes 0.04.
func flowConfig(s flowScale, seed int64) core.Config {
	preset := core.CIFARRelease()
	return core.Config{
		Data:        dataset.SyntheticCIFAR(preset.DataConfig(s.N, seed)),
		ModelCfg:    preset.ArchConfig(1),
		GroupBounds: preset.GroupBounds,
		Lambdas:     preset.Lambdas(10),
		WindowLen:   preset.WindowLen,
		Epochs:      s.Epochs, BatchSize: 32, LR: 0.05, Momentum: 0.9, ClipNorm: 5,
		Quant: core.QuantTargetCorrelated, Bits: 4,
		FineTuneEpochs: fineTuneEpochs, KeepRegDuringFineTune: true,
		Seed: seed, Threads: 1,
	}
}

// released is one produced release.
type released struct {
	res    *core.Result
	raw    []byte
	digest string
	// export is the time modelio.Export plus modelio.Write took.
	export time.Duration
}

// release runs the flow and exports the release file bytes, as dacrelease
// does.
func release(cfg core.Config) (*released, error) {
	res := core.Run(cfg)
	start := time.Now()
	rm, err := modelio.Export(res.Model, cfg.ModelCfg, res.Applied)
	if err != nil {
		return nil, fmt.Errorf("export: %w", err)
	}
	var buf bytes.Buffer
	if err := modelio.Write(&buf, rm); err != nil {
		return nil, fmt.Errorf("export: %w", err)
	}
	export := time.Since(start)
	sum := sha256.Sum256(buf.Bytes())
	return &released{res: res, raw: buf.Bytes(), digest: hex.EncodeToString(sum[:]), export: export}, nil
}

// releaseProcs runs the flow across procs processes: this process is the
// coordinator and spawns procs-1 workers through dist.CLI, each joining
// with runWorker. procs == 1 is a plain release.
func (r *runner) releaseProcs(cfg core.Config, s flowScale, procs int) (*released, error) {
	if procs == 1 {
		return release(cfg)
	}
	dir, err := os.MkdirTemp(r.tmp, "mailbox-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cli := dist.CLI{Procs: procs, Shards: procs, Dir: dir}
	sess, fleet, err := cli.Resolve([]string{
		"-seed", strconv.FormatInt(cfg.Seed, 10),
		"-flow-n", strconv.Itoa(s.N), "-flow-epochs", strconv.Itoa(s.Epochs),
	})
	if err != nil {
		return nil, err
	}
	cfg.Dist, cfg.Shards = sess, procs
	rel, err := release(cfg)
	if werr := fleet.Wait(); werr != nil && err == nil {
		err = werr
	}
	return rel, err
}

// runWorker is a flow-dp2 worker rank: it trains its shards of the flow the
// coordinator described on the command line, then exits.
func runWorker(cli *dist.CLI, s flowScale, seed int64) error {
	sess, _, err := cli.Resolve(nil)
	if err != nil {
		return err
	}
	cfg := flowConfig(s, seed)
	cfg.Dist, cfg.Shards = sess, sess.Procs()
	core.Run(cfg)
	return nil
}

func runFlowCold(r *runner) error { return runFlow(r, 1) }

func runFlowDP2(r *runner) error { return runFlow(r, 2) }

// minReps is the fewest repetitions a flow run makes: enough for a median,
// and in a traced run for one untraced repetition beside traced ones.
const minReps = 3

// runFlow measures repeated releases across procs processes.
//
// Set-up synthesizes the flow's dataset and trains the smoke release (a
// warm-up pass through every stage). With procs > 1 the smoke release is
// trained twice, across processes and in one process with the same shard
// count, and the two must be byte-identical.
//
// The measured phase repeats the release until the next repetition, taking
// the median time so far, would end past -seconds, and at least minReps
// times: the count follows the host's speed, the median does not, and the
// run stays close to -seconds long. Every repetition must produce the first
// one's digest (and the golden digest, when one is set) and meet the quality
// floors. A traced run traces every repetition but the first, so it also
// measures what tracing costs.
func runFlow(r *runner, procs int) error {
	var cfg core.Config
	setup := r.phase("setup")
	setupStart := time.Now()
	err := r.timeSetups(func() error {
		cfg = flowConfig(r.flow, r.seed)
		smoke := flowConfig(r.smoke, r.seed)
		got, err := r.releaseProcs(smoke, r.smoke, procs)
		if err != nil {
			return err
		}
		if procs == 1 {
			r.check(setup, nil)
			return nil
		}
		smoke.Shards = procs
		ref, err := release(smoke)
		if err != nil {
			return err
		}
		if got.digest != ref.digest {
			err = fmt.Errorf("%d-process smoke release %s differs from the single-process reference %s", procs, short(got.digest), short(ref.digest))
		}
		r.check(setup, err)
		return nil
	}, func() {})
	setup.Seconds = time.Since(setupStart).Seconds()
	if err != nil {
		return err
	}
	train, _ := cfg.Data.Split(0.2)

	ph := r.phase("flow")
	var walls, untracedWalls, tracedWalls []float64
	var spanSets []map[string]float64
	var coverage, exportS, waitS, writeMB, readMB []float64
	// Only the first repetition's digest and scores are kept, so a later
	// repetition does not run with an earlier one's model still live.
	var firstDigest string
	var firstRes core.Result
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start).Seconds()+median(walls) <= r.seconds; rep++ {
		traced := r.trace && rep > 0
		var tr *obs.Tracer
		if traced {
			tr = obs.NewTracer()
		}
		obs.Enable(traced)
		before := flowCounters()
		cfg.Trace = tr
		t0 := time.Now()
		rel, err := r.releaseProcs(cfg, r.flow, procs)
		wall := time.Since(t0).Seconds()
		obs.Enable(false)
		if err != nil {
			return err
		}
		if firstDigest == "" {
			firstDigest = rel.digest
			firstRes = core.Result{TestAcc: rel.res.TestAcc, Score: rel.res.Score}
		}
		r.check(ph, r.checkRelease(rel, firstDigest))
		walls = append(walls, wall)
		r.logf("flow rep %d: %.3fs digest %s acc %.4f ssim %.4f traced=%v", rep, wall, short(rel.digest), rel.res.TestAcc, rel.res.Score.MeanSSIM, traced)
		if !traced {
			untracedWalls = append(untracedWalls, wall)
			continue
		}
		tracedWalls = append(tracedWalls, wall)
		spans, err := parseReport(tr.Report())
		if err != nil {
			return err
		}
		spanSets = append(spanSets, spans)
		stages := 0.0
		for _, st := range flowStages {
			stages += spans["core/"+st]
		}
		coverage = append(coverage, (stages+rel.export.Seconds())/wall)
		exportS = append(exportS, rel.export.Seconds())
		after := flowCounters()
		waitS = append(waitS, float64(after.waitNS-before.waitNS)/1e9)
		writeMB = append(writeMB, float64(after.writeB-before.writeB)/(1<<20))
		readMB = append(readMB, float64(after.readB-before.readB)/(1<<20))
	}
	ph.Seconds = time.Since(start).Seconds()

	med := median(walls)
	r.e2e["lat_p50_ms"] = med * 1e3
	// Too few repetitions fit in a run for a p95: the tail is the upper
	// quartile.
	r.e2e["lat_tail_ms"] = quantile(walls, 0.75) * 1e3
	// Work completed per second: training-sample passes (train and
	// fine-tune epochs) per second of release wall time.
	r.e2e["throughput"] = float64(train.Len()*(r.flow.Epochs+fineTuneEpochs)) / med

	if !r.trace {
		return nil
	}
	for _, st := range flowStages {
		r.layers["core."+st+"_s"] = medianOf(spanSets, "core/"+st)
	}
	for _, part := range []string{"forward", "backward", "regularizer", "optimizer", "exchange", "reduce"} {
		r.layers["train."+part+"_s"] = medianOf(spanSets, "train/epoch/"+part)
	}
	r.layers["modelio.export_s"] = median(exportS)
	r.layers["dist.exchange_wait_s"] = median(waitS)
	r.layers["artifact.write_mb"] = median(writeMB)
	r.layers["artifact.read_mb"] = median(readMB)
	r.layers["attack.test_acc"] = firstRes.TestAcc
	r.layers["attack.payload_ssim"] = firstRes.Score.MeanSSIM
	r.layers["attack.payload_recog_frac"] = recogFrac(&firstRes)
	r.layers["trace.coverage"] = median(coverage)
	r.layers["trace.overhead_pct"] = 100 * (median(tracedWalls) - median(untracedWalls)) / median(untracedWalls)
	return nil
}

// flowStages are the stage graph's spans under core/, in order.
var flowStages = []string{"split", "preprocess", "train", "quantize", "finetune", "extract"}

// checkRelease holds a repetition to the first repetition's digest, the
// golden digest when set, and the scale's quality floors.
func (r *runner) checkRelease(rel *released, firstDigest string) error {
	if rel.digest != firstDigest {
		return fmt.Errorf("release %s differs from the first repetition's %s", short(rel.digest), short(firstDigest))
	}
	if r.wantDigest != "" && rel.digest != r.wantDigest {
		return fmt.Errorf("release %s, want the golden %s", short(rel.digest), short(r.wantDigest))
	}
	s, res := r.flow, rel.res
	switch {
	case recogFrac(res) < s.MinRecog:
		return fmt.Errorf("recognizable payload share %.4f below the %.2f floor", recogFrac(res), s.MinRecog)
	case res.Score.MeanSSIM < s.MinSSIM:
		return fmt.Errorf("payload SSIM %.4f below the %.2f floor", res.Score.MeanSSIM, s.MinSSIM)
	}
	return nil
}

func recogFrac(res *core.Result) float64 {
	if res.Score.N == 0 {
		return 0
	}
	return float64(res.Score.Recognizable) / float64(res.Score.N)
}

// flowCounts are the obs.Default counters the traced flow reads.
type flowCounts struct{ waitNS, writeB, readB int64 }

func flowCounters() flowCounts {
	return flowCounts{
		waitNS: obs.Default.Counter("dist_exchange_wait_ns_total").Value(),
		writeB: obs.Default.Counter("artifact_cache_write_bytes_total").Value(),
		readB:  obs.Default.Counter("artifact_cache_read_bytes_total").Value(),
	}
}

// medianOf is the median of one span's total across traced repetitions.
func medianOf(sets []map[string]float64, path string) float64 {
	xs := make([]float64, len(sets))
	for i, s := range sets {
		xs[i] = s[path]
	}
	return median(xs)
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}

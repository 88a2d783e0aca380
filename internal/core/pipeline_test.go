package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/nn"
	"repro/internal/train"
)

// cachedCfg is the proposed malicious flow on the small fixtures, the
// config that exercises every stage of the graph.
func cachedCfg(seed int64) Config {
	cfg := fastCfg(smallData(false, seed), smallModel(1))
	cfg.GroupBounds = []int{4, 6}
	cfg.Lambdas = []float64{0, 0, 10}
	cfg.WindowLen = 5
	cfg.Quant = QuantTargetCorrelated
	cfg.Bits = 4
	cfg.FineTuneEpochs = 1
	cfg.KeepRegDuringFineTune = true
	return cfg
}

func openStore(t *testing.T) *artifact.Store {
	t.Helper()
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func flatParams(m *nn.Model) []float64 {
	var flat []float64
	for _, p := range m.Params() {
		flat = append(flat, p.Value.Data()...)
	}
	return flat
}

func sameResult(t *testing.T, a, b *Result) {
	t.Helper()
	aw, bw := flatParams(a.Model), flatParams(b.Model)
	if len(aw) != len(bw) {
		t.Fatalf("param counts differ: %d vs %d", len(aw), len(bw))
	}
	for i := range aw {
		if aw[i] != bw[i] {
			t.Fatalf("released weight[%d] differs: %v vs %v", i, aw[i], bw[i])
		}
	}
	if a.TrainAcc != b.TrainAcc || a.TestAcc != b.TestAcc || a.PreQuantTestAcc != b.PreQuantTestAcc {
		t.Fatalf("accuracies differ: %+v vs %+v", a, b)
	}
	if a.Score.N != b.Score.N || a.Score.MeanMAPE != b.Score.MeanMAPE {
		t.Fatalf("scores differ: %v vs %v", a.Score, b.Score)
	}
	if len(a.Recon) != len(b.Recon) {
		t.Fatalf("recon counts differ: %d vs %d", len(a.Recon), len(b.Recon))
	}
	for i := range a.Recon {
		for j := range a.Recon[i].Pix {
			if a.Recon[i].Pix[j] != b.Recon[i].Pix[j] {
				t.Fatalf("recon %d pixel %d differs", i, j)
			}
		}
	}
}

// TestPipelineWarmRunMatchesColdAndSkipsWork is the heart of the caching
// contract: a second run over the same store returns bit-identical results
// while every cacheable stage hits (no retraining, no requantizing, no
// re-extraction).
func TestPipelineWarmRunMatchesColdAndSkipsWork(t *testing.T) {
	store := openStore(t)

	cfg := cachedCfg(41)
	cfg.Cache = store
	var coldLog bytes.Buffer
	cfg.Log = &coldLog
	cold := Run(cfg)
	if strings.Contains(coldLog.String(), "cache: train hit") {
		t.Fatal("cold run claims a cache hit")
	}
	coldStats := store.Stats()
	if coldStats.WriteBytes == 0 {
		t.Fatal("cold run persisted nothing")
	}

	cfg2 := cachedCfg(41)
	cfg2.Cache = store
	var warmLog bytes.Buffer
	cfg2.Log = &warmLog
	warm := Run(cfg2)
	sameResult(t, cold, warm)

	logs := warmLog.String()
	for _, stage := range []string{"preprocess", "train", "quantize", "finetune", "extract"} {
		if !strings.Contains(logs, "cache: "+stage+" hit") {
			t.Fatalf("warm run did not hit %s stage:\n%s", stage, logs)
		}
	}
	// No training epochs ran on the warm path (the trainer logs one line
	// per epoch when a Log writer is attached).
	if strings.Contains(logs, "epoch ") {
		t.Fatalf("warm run still trained:\n%s", logs)
	}
	warmStats := store.Stats()
	if warmStats.Hits < coldStats.Hits+5 {
		t.Fatalf("warm run hits %d, want at least 5 more than cold's %d", warmStats.Hits, coldStats.Hits)
	}
	if warmStats.WriteBytes != coldStats.WriteBytes {
		t.Fatal("warm run rewrote artifacts")
	}
}

// TestPipelineUncachedMatchesCached pins that attaching a store does not
// change results: the same config with and without a cache produces
// bit-identical outputs (the graph refactor preserves the monolithic
// flow's behavior exactly).
func TestPipelineUncachedMatchesCached(t *testing.T) {
	plain := Run(cachedCfg(42))
	cfg := cachedCfg(42)
	cfg.Cache = openStore(t)
	cached := Run(cfg)
	sameResult(t, plain, cached)
}

// TestPipelineSharedTrainingPrefix: two configs that differ only
// downstream of training (here: codebook bit width) share the split →
// preprocess → train prefix, so the second run reuses the trained model
// and only recomputes quantization onward.
func TestPipelineSharedTrainingPrefix(t *testing.T) {
	store := openStore(t)
	base := func(bits int) Config {
		cfg := cachedCfg(43)
		cfg.Quant = QuantWEQ
		cfg.KeepRegDuringFineTune = false
		cfg.Bits = bits
		cfg.Cache = store
		return cfg
	}
	Run(base(2))

	cfg := base(3)
	var log bytes.Buffer
	cfg.Log = &log
	Run(cfg)
	logs := log.String()
	if !strings.Contains(logs, "cache: train hit") {
		t.Fatalf("bit-width sweep retrained:\n%s", logs)
	}
	if !strings.Contains(logs, "cache: preprocess hit") {
		t.Fatalf("bit-width sweep rebuilt the plan:\n%s", logs)
	}
	if strings.Contains(logs, "cache: quantize hit") {
		t.Fatalf("different bit width must not reuse quantization:\n%s", logs)
	}
}

// TestPipelineSelfHealsCorruptArtifact: a damaged cached artifact must
// not poison the run. Each persisted kind in turn is cut to half its
// length between a cold and a warm run (a torn copy, a disk that lost the
// tail); every stage that owns the kind must detect the damage, evict,
// and recompute, the warm results must match the cold ones, and a third
// run must hit every stage again. A flipped header byte takes the same
// path. (A mid-payload gob flip may legally decode to different values,
// which is the codecs' documented limit, not the store's.)
func TestPipelineSelfHealsCorruptArtifact(t *testing.T) {
	half := func(raw []byte) []byte { return raw[:len(raw)/2] }
	flipHeader := func(raw []byte) []byte { raw[0] ^= 0xff; return raw }
	for _, c := range []struct {
		name, kind string
		damage     func([]byte) []byte
		stages     []string // the stages that persist kind
	}{
		{"plan-truncated", "plan", half, []string{"preprocess"}},
		{"model-state-truncated", "model-state", half, []string{"train", "finetune"}},
		{"quant-record-truncated", "quant-record", half, []string{"quantize", "finetune"}},
		{"report-truncated", "report", half, []string{"extract"}},
		{"report-header-flipped", "report", flipHeader, []string{"extract"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			store := openStore(t)
			cold, _ := runCached(t, store)

			matches := mustGlob(t, filepath.Join(store.Root(), c.kind, "*", "*.bin"))
			if len(matches) != len(c.stages) {
				t.Fatalf("%d %s artifacts, want one per owning stage %v", len(matches), c.kind, c.stages)
			}
			for _, path := range matches {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, c.damage(raw), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			warm, log := runCached(t, store)
			for _, stage := range c.stages {
				if !strings.Contains(log, "cache: "+stage+" artifact unusable") {
					t.Fatalf("damaged %s not detected by %s:\n%s", c.kind, stage, log)
				}
			}
			sameResult(t, cold, warm)

			// The evicted artifacts were rebuilt: a third run hits again.
			_, log3 := runCached(t, store)
			for _, stage := range []string{"preprocess", "train", "quantize", "finetune", "extract"} {
				if !strings.Contains(log3, "cache: "+stage+" hit") {
					t.Fatalf("rebuilt %s not reused by %s:\n%s", c.kind, stage, log3)
				}
			}
		})
	}
}

// runCached runs the cachedCfg flow over store and returns its log.
func runCached(t *testing.T, store *artifact.Store) (*Result, string) {
	t.Helper()
	cfg := cachedCfg(44)
	cfg.Cache = store
	var log bytes.Buffer
	cfg.Log = &log
	return Run(cfg), log.String()
}

// TestPipelineSurvivesFailedWrites: a store that cannot take a single
// write must cost the run its cache, not its result. Replacing the
// store's staging directory with a regular file makes every Put fail (for
// root too) while reads still miss cleanly; the run completes, logs each
// failed write, publishes nothing, and matches an uncached run.
func TestPipelineSurvivesFailedWrites(t *testing.T) {
	store := openStore(t)
	staging := filepath.Join(store.Root(), "tmp")
	if err := os.Remove(staging); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(staging, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	plain := Run(cachedCfg(44))
	cached, log := runCached(t, store)
	sameResult(t, plain, cached)
	for _, stage := range []string{"preprocess", "train", "quantize", "finetune", "extract"} {
		if !strings.Contains(log, "cache: "+stage+" write failed") {
			t.Fatalf("no failed write logged for %s:\n%s", stage, log)
		}
	}
	if !strings.Contains(log, "cache: epoch 5 checkpoint write failed") {
		t.Fatalf("no failed epoch-checkpoint write logged:\n%s", log)
	}
	for _, kind := range []string{"plan", "model-state", "epoch-checkpoint", "quant-record", "report"} {
		keys, err := store.Keys(kind)
		if err != nil || len(keys) != 0 {
			t.Fatalf("%s: published %v (%v) through a store that cannot write", kind, keys, err)
		}
	}
	if st := store.Stats(); st.WriteBytes != 0 || st.Hits != 0 {
		t.Fatalf("store stats %+v, want no writes and no hits", st)
	}
}

// TestPipelineResumeFromEpochCheckpoint simulates an interrupted training
// run: epoch checkpoints exist in the store but the full train artifact
// does not. With Resume set, the run continues from the latest checkpoint
// and lands on bit-identical weights.
func TestPipelineResumeFromEpochCheckpoint(t *testing.T) {
	store := openStore(t)
	mk := func() Config {
		cfg := fastCfg(smallData(false, 45), smallModel(1))
		cfg.Epochs = 4
		cfg.Cache = store
		cfg.CheckpointEvery = 2
		return cfg
	}
	cold := Run(mk())

	// "Crash": the completed-run artifact vanishes, the mid-run epoch
	// checkpoints survive.
	for _, kind := range []string{"model-state"} {
		matches, err := filepath.Glob(filepath.Join(store.Root(), kind, "*", "*.bin"))
		if err != nil || len(matches) == 0 {
			t.Fatalf("no %s artifacts (%v)", kind, err)
		}
		for _, path := range matches {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	if eps, _ := filepath.Glob(filepath.Join(store.Root(), "epoch-checkpoint", "*", "*.bin")); len(eps) == 0 {
		t.Fatal("no epoch checkpoints were written")
	}

	cfg := mk()
	cfg.Resume = true
	var log bytes.Buffer
	cfg.Log = &log
	resumed := Run(cfg)
	if !strings.Contains(log.String(), "cache: resuming training from epoch 2/4") {
		t.Fatalf("did not resume from the epoch checkpoint:\n%s", log.String())
	}
	sameResult(t, cold, resumed)

	// Without Resume, the same situation retrains from scratch — and
	// still matches (determinism).
	for _, path := range mustGlob(t, filepath.Join(store.Root(), "model-state", "*", "*.bin")) {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	fresh := Run(mk())
	sameResult(t, cold, fresh)

	// A torn latest checkpoint is skipped and evicted, and the run
	// resumes from the one before it. Checkpointing every epoch (the
	// cadence is not part of the key) leaves checkpoints at epochs 1-3.
	every := func() Config {
		cfg := mk()
		cfg.CheckpointEvery = 1
		return cfg
	}
	dropModelState := func() {
		for _, path := range mustGlob(t, filepath.Join(store.Root(), "model-state", "*", "*.bin")) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	dropModelState()
	Run(every())
	dropModelState()
	latest := epochCheckpointFile(t, store, 3)
	raw, err := os.ReadFile(latest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(latest, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	cfg = every()
	cfg.Resume = true
	log.Reset()
	cfg.Log = &log
	resumed = Run(cfg)
	for _, want := range []string{"cache: epoch 3 checkpoint unusable, skipping", "cache: resuming training from epoch 2/4"} {
		if !strings.Contains(log.String(), want) {
			t.Fatalf("log lacks %q:\n%s", want, log.String())
		}
	}
	sameResult(t, cold, resumed)
	// The resumed run rebuilt the evicted checkpoint whole.
	if got := epochCheckpointFile(t, store, 3); got != latest {
		t.Fatalf("rebuilt epoch-3 checkpoint at %s, was %s", got, latest)
	}
}

// epochCheckpointFile returns the path of the one stored epoch checkpoint
// that decodes to the given epoch.
func epochCheckpointFile(t *testing.T, store *artifact.Store, epoch int) string {
	t.Helper()
	found := ""
	for _, path := range mustGlob(t, filepath.Join(store.Root(), "epoch-checkpoint", "*", "*.bin")) {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := train.DecodeCheckpoint(f)
		f.Close()
		if err == nil && ck.Epoch == epoch {
			if found != "" {
				t.Fatalf("two epoch-%d checkpoints: %s and %s", epoch, found, path)
			}
			found = path
		}
	}
	if found == "" {
		t.Fatalf("no whole epoch-%d checkpoint in the store", epoch)
	}
	return found
}

func mustGlob(t *testing.T, pattern string) []string {
	t.Helper()
	matches, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

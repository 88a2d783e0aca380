package dist_test

// The flagship reproducibility test of the data-parallel refactor: the
// final checkpoint — parameters, batch-norm running statistics, optimizer
// state, and epoch stats — must be byte-identical across (threads × procs)
// execution shapes for a fixed shard count. Multi-process shapes run their
// ranks as goroutines, each with its own session on loopback TCP and a
// private compute context, exactly as separate OS processes would.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/train"
)

const (
	shapeShards = 4
	shapeEpochs = 2
	shapeBatch  = 8
)

// shapeProblem builds the same tiny conv problem the trainer's own
// determinism tests use, with fixed seeds so every call is bit-identical.
func shapeProblem() (*tensor.Tensor, []int, func() *nn.Model) {
	rng := rand.New(rand.NewSource(21))
	n := 48
	x := tensor.New(n, 1, 8, 8).RandN(rng, 0, 1)
	y := make([]int, n)
	for i := range y {
		y[i] = i % 4
	}
	build := func() *nn.Model {
		return nn.NewResNet(nn.ResNetConfig{
			InC: 1, InH: 8, InW: 8, Classes: 4,
			Widths: []int{4, 8}, Blocks: []int{1, 1}, Seed: 22,
		})
	}
	return x, y, build
}

// rankRun is one rank's outcome: its encoded final checkpoint, and the time
// it spent exchanging partials over its steps.
type rankRun struct {
	ck       []byte
	exchange time.Duration
	steps    int
}

// runRank runs one rank of the shape. sess is nil for single-process
// shapes. With timed set the trainer measures its phases; the checkpoint
// always encodes the epoch stats with those wall times zeroed, so its
// bytes do not depend on timing.
func runRank(threads, shards int, sess *dist.Session, token string, timed bool) (rankRun, error) {
	x, y, build := shapeProblem()
	m := build()
	opt := train.NewSGD(0.05, 0.9, 0)
	cfg := train.Config{
		Epochs: shapeEpochs, BatchSize: shapeBatch,
		Optimizer: opt, ClipNorm: 5, Seed: 23,
		Shards: shards,
		// Private context per rank: the shared contexts Threads selects
		// admit one driver at a time, and in-process ranks train
		// concurrently.
		Ctx:  compute.New(threads),
		Dist: sess, DistToken: token,
	}
	if timed {
		cfg.Trace = obs.NewTracer()
	}
	res := train.Run(m, x, y, cfg)
	if res.DistSkipped {
		return rankRun{}, fmt.Errorf("run unexpectedly skipped")
	}
	var run rankRun
	stats := make([]train.EpochStats, len(res.Epochs))
	for i, st := range res.Epochs {
		run.exchange += st.Exchange
		run.steps += st.Steps
		st.Forward, st.Backward, st.Reg, st.Optim, st.Exchange, st.Reduce = 0, 0, 0, 0, 0, 0
		stats[i] = st
	}
	var buf bytes.Buffer
	if err := train.EncodeCheckpoint(&buf, train.Capture(m, opt, shapeEpochs, stats)); err != nil {
		return rankRun{}, err
	}
	run.ck = buf.Bytes()
	return run, nil
}

// trainRank runs one untimed rank of the shape and returns its encoded
// final checkpoint.
func trainRank(threads, shards int, sess *dist.Session, token string) ([]byte, error) {
	run, err := runRank(threads, shards, sess, token, false)
	return run.ck, err
}

// trainShape runs one untimed (threads × procs) shape and returns its
// final checkpoint bytes.
func trainShape(t *testing.T, threads, procs int) []byte {
	t.Helper()
	return runShape(t, threads, procs, false).ck
}

// runShape runs one (threads × procs) shape to completion and returns rank
// 0's outcome, first checking that every rank of the shape produced
// identical checkpoint bytes.
func runShape(t *testing.T, threads, procs int, timed bool) rankRun {
	t.Helper()
	if procs == 1 {
		run, err := runRank(threads, shapeShards, nil, "", timed)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	dir := t.TempDir()
	runs := make([]rankRun, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for r := 0; r < procs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("rank %d panicked: %v", r, p)
				}
			}()
			sess, err := dist.New(dist.Options{Dir: dir, Rank: r, Procs: procs, Timeout: 30 * time.Second})
			if err != nil {
				errs[r] = err
				return
			}
			defer sess.Close()
			runs[r], errs[r] = runRank(threads, shapeShards, sess, "cross-shape-run", timed)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("procs=%d rank %d: %v", procs, r, err)
		}
	}
	for r := 1; r < procs; r++ {
		if !bytes.Equal(runs[r].ck, runs[0].ck) {
			t.Fatalf("procs=%d: rank %d checkpoint differs from rank 0", procs, r)
		}
	}
	return runs[0]
}

// TestTrainBitIdenticalAcrossShapes pins the PR's acceptance criterion: for
// a fixed shard count, the final checkpoint is byte-identical across the
// execution shapes {1×1, 4×1, 1×4, 2×2} (threads × processes).
func TestTrainBitIdenticalAcrossShapes(t *testing.T) {
	ref := trainShape(t, 1, 1)
	if len(ref) == 0 {
		t.Fatal("empty reference checkpoint")
	}
	for _, sh := range []struct{ threads, procs int }{{4, 1}, {1, 4}, {2, 2}} {
		sh := sh
		t.Run(fmt.Sprintf("%dx%d", sh.threads, sh.procs), func(t *testing.T) {
			if got := trainShape(t, sh.threads, sh.procs); !bytes.Equal(got, ref) {
				t.Fatalf("checkpoint (threads=%d, procs=%d) differs from 1x1 reference", sh.threads, sh.procs)
			}
		})
	}
}

// TestShardCountIsSemantic documents the contract's other half: the shard
// count is a semantic knob — unlike threads and procs, changing it changes
// the result (shard-local batch-norm statistics, shard-order reduction).
func TestShardCountIsSemantic(t *testing.T) {
	one, err := trainRank(1, 1, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	four, err := trainRank(1, shapeShards, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(one, four) {
		t.Fatal("shards=1 and shards=4 produced identical checkpoints; the shard count should be semantic")
	}
}

// TestWorkerSkipsCompletedRun covers the cache-hit handshake: when the
// coordinator's verdict for a run is complete rather than begin, a
// worker's train.Run returns DistSkipped without touching the model.
func TestWorkerSkipsCompletedRun(t *testing.T) {
	dir := t.TempDir()
	mk := func(rank int) *dist.Session {
		s, err := dist.New(dist.Options{Dir: dir, Rank: rank, Procs: 2, Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	coord, worker := mk(0), mk(1)
	if err := coord.Complete("cached-run"); err != nil {
		t.Fatal(err)
	}
	x, y, build := shapeProblem()
	m := build()
	before := append([]float64(nil), m.Params()[0].Value.Data()...)
	res := train.Run(m, x, y, train.Config{
		Epochs: shapeEpochs, BatchSize: shapeBatch,
		Optimizer: train.NewSGD(0.05, 0.9, 0), Seed: 23,
		Shards: 2, Ctx: compute.New(1),
		Dist: worker, DistToken: "cached-run",
	})
	if !res.DistSkipped {
		t.Fatal("worker trained a run the coordinator had already completed")
	}
	for i, v := range m.Params()[0].Value.Data() {
		if v != before[i] {
			t.Fatalf("skipped run modified the model (param[0][%d])", i)
		}
	}
}

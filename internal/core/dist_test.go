package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/dist"
)

// distBenignCfg is a small benign pipeline config for the dist tests: no
// quantization or fine-tuning, so the run is dominated by the train stage
// the dist protocol covers.
func distBenignCfg(seed int64, threads int) Config {
	cfg := fastCfg(smallData(false, seed), smallModel(1))
	cfg.Epochs = 2
	cfg.Threads = threads
	return cfg
}

// distPair opens coordinator and worker sessions on one dist directory.
func distPair(t *testing.T) (coord, worker *dist.Session) {
	t.Helper()
	dir := t.TempDir()
	open := func(rank int) *dist.Session {
		s, err := dist.New(dist.Options{Dir: dir, Rank: rank, Procs: 2, Timeout: 60 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	return open(0), open(1)
}

// runDistPair runs the coordinator and worker pipelines concurrently. The
// two ranks use different Threads values on purpose: the shared compute
// contexts admit one driver at a time, so distinct thread counts give the
// in-process ranks distinct contexts — and double as a cross-shape check,
// since results must not depend on threads anyway.
func runDistPair(t *testing.T, mkCfg func(rank int) Config) (coord, worker *Result) {
	t.Helper()
	results := make([]*Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var cfg Config
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("rank %d panicked: %v", rank, p)
					// Like a crashed process, a failed rank ends its
					// connections, so its peer fails now rather than at
					// the session timeout.
					if cfg.Dist != nil {
						cfg.Dist.Close()
					}
				}
			}()
			cfg = mkCfg(rank)
			results[rank] = Run(cfg)
		}(rank)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	return results[0], results[1]
}

// TestPipelineDistMatchesSingleProcess pins the pipeline-level contract: a
// coordinator+worker pair produces the same trained weights as one process
// computing the same shards itself.
func TestPipelineDistMatchesSingleProcess(t *testing.T) {
	ref := distBenignCfg(77, 1)
	ref.Shards = 2
	refRes := Run(ref)
	refW := flatParams(refRes.Model)

	sessC, sessW := distPair(t)
	coordRes, workRes := runDistPair(t, func(rank int) Config {
		cfg := distBenignCfg(77, 1+rank)
		if rank == 0 {
			cfg.Dist = sessC
		} else {
			cfg.Dist = sessW
		}
		return cfg
	})

	for name, res := range map[string]*Result{"coordinator": coordRes, "worker": workRes} {
		w := flatParams(res.Model)
		if len(w) != len(refW) {
			t.Fatalf("%s: param count %d != %d", name, len(w), len(refW))
		}
		for i := range refW {
			if w[i] != refW[i] {
				t.Fatalf("%s: weight[%d] %v != single-process %v", name, i, w[i], refW[i])
			}
		}
	}
	if coordRes.TestAcc != refRes.TestAcc {
		t.Fatalf("coordinator TestAcc %v != single-process %v", coordRes.TestAcc, refRes.TestAcc)
	}
}

// TestPipelineDistWorkerLoadsCachedRun covers the cache-hit handshake end
// to end: with the train stage already cached, the coordinator sends the
// complete verdict without ever beginning an exchange, and the worker
// loads the published model state instead of training.
func TestPipelineDistWorkerLoadsCachedRun(t *testing.T) {
	cacheDir := t.TempDir()
	openCache := func() *artifact.Store {
		st, err := artifact.Open(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	warm := distBenignCfg(78, 1)
	warm.Shards = 2
	warm.Cache = openCache()
	warmRes := Run(warm)
	warmW := flatParams(warmRes.Model)

	sessC, sessW := distPair(t)
	coordRes, workRes := runDistPair(t, func(rank int) Config {
		cfg := distBenignCfg(78, 1+rank)
		cfg.Cache = openCache()
		if rank == 0 {
			cfg.Dist = sessC
		} else {
			cfg.Dist = sessW
		}
		return cfg
	})

	for name, res := range map[string]*Result{"coordinator": coordRes, "worker": workRes} {
		w := flatParams(res.Model)
		for i := range warmW {
			if w[i] != warmW[i] {
				t.Fatalf("%s: weight[%d] %v != warm run %v", name, i, w[i], warmW[i])
			}
		}
	}
}

// TestPipelineDistSessionServesSequentialRuns runs three pipelines over one
// coordinator/worker session pair and a shared cache: a fresh run, a
// repeat the coordinator serves from cache, and a run with a new seed.
// Each must match its single-process reference. A run that left a frame
// unread would hand the next run a stale verdict or partial, and the third
// run's new token makes that fail rather than pass.
func TestPipelineDistSessionServesSequentialRuns(t *testing.T) {
	cacheDir := t.TempDir()
	sessC, sessW := distPair(t)
	for i, seed := range []int64{79, 79, 80} {
		ref := distBenignCfg(seed, 1)
		ref.Shards = 2
		refW := flatParams(Run(ref).Model)

		stores := make([]*artifact.Store, 2)
		coordRes, workRes := runDistPair(t, func(rank int) Config {
			cfg := distBenignCfg(seed, 1+rank)
			st, err := artifact.Open(cacheDir)
			if err != nil {
				panic(err)
			}
			cfg.Cache, stores[rank] = st, st
			cfg.Dist = sessC
			if rank == 1 {
				cfg.Dist = sessW
			}
			return cfg
		})
		for name, res := range map[string]*Result{"coordinator": coordRes, "worker": workRes} {
			w := flatParams(res.Model)
			for j := range refW {
				if w[j] != refW[j] {
					t.Fatalf("run %d (seed %d) %s: weight[%d] %v != single-process %v", i, seed, name, j, w[j], refW[j])
				}
			}
		}
		// Only the second run is served from cache: the coordinator hits
		// its train stage, and the worker, which probes no train-stage
		// entry, loads the model state on the complete verdict. The
		// worker writes no cache entries at all.
		coordHits, work := stores[0].Stats().Hits, stores[1].Stats()
		if (coordHits > 0) != (i == 1) || (work.Hits > 0) != (i == 1) || work.WriteBytes != 0 {
			t.Fatalf("run %d: coordinator hits %d, worker hits %d, worker wrote %d bytes", i, coordHits, work.Hits, work.WriteBytes)
		}
	}
}

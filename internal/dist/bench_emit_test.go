package dist_test

// dp-bench: the data-parallel benchmark behind `make dp-bench`. It runs the
// same fixed-shard training job at several process counts (ranks as
// goroutines, each with its own loopback session and a private compute
// context — the same execution structure separate OS processes have),
// records per-shape wall time and exchange time per step into
// BENCH_dp.json, and hard-gates the determinism contract: the final
// checkpoint digest must be identical across every shape. No wall-time
// gate — in one container the shapes share cores, so multi-process wall
// time is reported honestly, not judged.

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"
)

var emitBench = flag.String("emit-bench", "", "write data-parallel benchmark numbers (BENCH_dp.json) to this path")

type dpShapeReport struct {
	Procs         int     `json:"procs"`
	Threads       int     `json:"threads_per_rank"`
	WallNs        int64   `json:"wall_ns"`
	EpochWallNs   int64   `json:"epoch_wall_ns"`
	CheckpointSHA string  `json:"checkpoint_sha256"`
	VsOneProc     float64 `json:"wall_vs_one_proc"`
	// ExchangeNsPerStep is rank 0's EpochStats.Exchange summed over the
	// run, divided by its step count (0 for one process).
	ExchangeNsPerStep int64 `json:"exchange_ns_per_step"`
}

type dpBenchReport struct {
	Shards       int             `json:"shards"`
	Epochs       int             `json:"epochs"`
	BatchSize    int             `json:"batch_size"`
	Shapes       []dpShapeReport `json:"shapes"`
	BitIdentical bool            `json:"bit_identical"`
}

func TestEmitDPBench(t *testing.T) {
	if *emitBench == "" {
		t.Skip("pass -emit-bench=<path> (make dp-bench) to measure data-parallel training")
	}

	rep := dpBenchReport{Shards: shapeShards, Epochs: shapeEpochs, BatchSize: shapeBatch}
	var ref string
	for _, procs := range []int{1, 2, 4} {
		start := time.Now()
		run := runShape(t, 1, procs, true)
		wall := time.Since(start)
		sum := sha256.Sum256(run.ck)
		digest := fmt.Sprintf("%x", sum)
		if procs == 1 {
			ref = digest
		}
		rep.Shapes = append(rep.Shapes, dpShapeReport{
			Procs: procs, Threads: 1,
			WallNs:            wall.Nanoseconds(),
			EpochWallNs:       wall.Nanoseconds() / int64(shapeEpochs),
			CheckpointSHA:     digest,
			ExchangeNsPerStep: run.exchange.Nanoseconds() / int64(run.steps),
		})
		t.Logf("procs=%d: wall %v, exchange %v/step, checkpoint %s", procs, wall, run.exchange/time.Duration(run.steps), digest[:16])
	}
	base := rep.Shapes[0].WallNs
	for i := range rep.Shapes {
		rep.Shapes[i].VsOneProc = float64(rep.Shapes[i].WallNs) / float64(base)
	}

	rep.BitIdentical = true
	for _, sh := range rep.Shapes {
		if sh.CheckpointSHA != ref {
			rep.BitIdentical = false
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

	// The hard gate: every process count must produce the same final
	// checkpoint, byte for byte.
	if !rep.BitIdentical {
		for _, sh := range rep.Shapes {
			t.Logf("procs=%d: checkpoint %s", sh.Procs, sh.CheckpointSHA)
		}
		t.Fatalf("final checkpoint differs across process counts — the determinism contract is broken")
	}
}

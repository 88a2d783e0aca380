// Command dacrelease plays the data holder's side of the threat model: it
// trains a classifier on (synthetic) private data using the third-party
// pipeline — which happens to be malicious — quantizes it, and writes the
// released model file an adversary would later obtain.
//
//	dacrelease -model released.bin [-truth dir] [-lambda 10] [-bits 4]
//
// With -truth, the ground-truth encoding targets are also saved as PGM
// files so the extraction can be scored afterwards (evaluation aid only;
// the adversary never sees them). With -store, the release is additionally
// published into an artifact store under its content digest, where a
// dacserve/dacgateway fleet pulls it from — every replica that loads the
// digest provably serves byte-identical weights.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	modelPath := flag.String("model", "released.bin", "output model file")
	storeDir := flag.String("store", "", "artifact store to also publish the release into, keyed by content digest (dacserve replicas pull it with -pull / :load)")
	truthDir := flag.String("truth", "", "optional directory for ground-truth target PGMs")
	lambda := flag.Float64("lambda", 10, "correlation rate for the encoding group")
	bits := flag.Int("bits", 4, "quantization bit width")
	epochs := flag.Int("epochs", 15, "training epochs")
	n := flag.Int("n", 800, "dataset size")
	seed := flag.Int64("seed", 7, "seed")
	threads := flag.Int("threads", 0, "worker threads per model pass (0 = all cores; results identical for any value)")
	traceOut := flag.String("trace-out", "", "write a phase-span timing report to this file at exit (\"-\" for stderr)")
	cacheDir := flag.String("cache-dir", "", "persistent artifact store; stages with cached results are skipped across invocations")
	resume := flag.Bool("resume", false, "with -cache-dir: continue an interrupted training run from its latest epoch checkpoint")
	var dcli dist.CLI
	dcli.Register(flag.CommandLine)
	flag.Parse()

	sess, fleet, err := dcli.Resolve(os.Args[1:])
	if err != nil {
		fatal(err)
	}
	worker := sess != nil && sess.Worker()
	if worker {
		// Workers feed gradient shards into the coordinator's training run
		// and never write release outputs or reports.
		*traceOut = ""
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		obs.Enable(true)
		tracer = obs.NewTracer()
		defer func() {
			if err := tracer.WriteFile(*traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "dacrelease: trace-out:", err)
			}
		}()
	}

	var store *artifact.Store
	if *cacheDir != "" {
		var err error
		if store, err = artifact.Open(*cacheDir); err != nil {
			fatal(err)
		}
	} else if *resume {
		fmt.Fprintln(os.Stderr, "dacrelease: -resume requires -cache-dir")
		os.Exit(2)
	}

	preset := core.CIFARRelease()
	data := dataset.SyntheticCIFAR(preset.DataConfig(*n, *seed))
	arch := preset.ArchConfig(1)
	logw := io.Writer(os.Stderr)
	if worker {
		logw = nil
	}
	res := core.Run(core.Config{
		Data: data, ModelCfg: arch,
		GroupBounds: preset.GroupBounds,
		Lambdas:     preset.Lambdas(*lambda),
		WindowLen:   preset.WindowLen,
		Epochs:      *epochs, BatchSize: 32, LR: 0.05, Momentum: 0.9, ClipNorm: 5,
		Quant: core.QuantTargetCorrelated, Bits: *bits,
		FineTuneEpochs: 3, KeepRegDuringFineTune: true,
		Seed: *seed, Log: logw,
		Threads: *threads, Trace: tracer,
		Cache: store, Resume: *resume,
		Dist: sess, Shards: dcli.Shards,
	})
	if worker {
		// The coordinator owns the release; this rank's contribution ended
		// with the jointly trained model.
		return
	}

	rm, err := modelio.Export(res.Model, arch, res.Applied)
	if err != nil {
		fatal(err)
	}
	if err := modelio.Save(*modelPath, rm); err != nil {
		fatal(err)
	}
	size := modelio.Size(rm)
	fmt.Printf("released %s: test accuracy %.2f%%, %d images embedded\n",
		*modelPath, 100*res.TestAcc, res.Plan.TotalImages())
	fmt.Printf("storage: %d bytes (%.1fx smaller than raw %d bytes)\n",
		size.TotalBytes(), size.Ratio(), size.RawBytes)

	if *storeDir != "" {
		pub, err := artifact.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		digest, err := serve.PublishReleaseFile(pub, *modelPath)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("published release to %s (digest %s)\n", *storeDir, digest)
	}

	if *truthDir != "" {
		if err := os.MkdirAll(*truthDir, 0o755); err != nil {
			fatal(err)
		}
		for i, im := range res.Plan.AllImages() {
			path := filepath.Join(*truthDir, fmt.Sprintf("truth_%03d.pgm", i))
			if err := im.SavePNM(path); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("wrote %d ground-truth targets to %s\n", res.Plan.TotalImages(), *truthDir)
	}

	if err := fleet.Wait(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dacrelease:", err)
	os.Exit(1)
}

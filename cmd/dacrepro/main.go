// Command dacrepro regenerates the paper's tables and figures. Usage:
//
//	dacrepro [flags] <experiment>...
//
// where each experiment is one of: table1 table2 table3 table4 fig2 fig3
// fig4 fig5 ablations all. Runs within one invocation share trained models
// through an in-process cache (Fig 4, for example, reuses Table I and
// Table III models).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/artifact"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	seed := flag.Int64("seed", 1, "global experiment seed")
	quick := flag.Bool("quick", false, "shrunken datasets and epochs (smoke test)")
	verbose := flag.Bool("v", false, "log per-run training progress")
	outDir := flag.String("outdir", "", "directory for image artifacts (fig5)")
	threads := flag.Int("threads", 0, "worker threads per model pass (0 = all cores; results identical for any value)")
	traceOut := flag.String("trace-out", "", "write a phase-span timing report to this file at exit (\"-\" for stderr)")
	cacheDir := flag.String("cache-dir", "", "persistent artifact store; stages with cached results are skipped across invocations")
	resume := flag.Bool("resume", false, "with -cache-dir: continue interrupted training runs from their latest epoch checkpoint")
	var dcli dist.CLI
	dcli.Register(flag.CommandLine)
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: dacrepro [flags] {table1|table2|table3|table4|fig2|fig3|fig4|fig5|ablations|all}...")
		flag.PrintDefaults()
		os.Exit(2)
	}

	sess, fleet, err := dcli.Resolve(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "dacrepro: %v\n", err)
		os.Exit(2)
	}
	worker := sess != nil && sess.Worker()
	if worker {
		// Workers contribute gradient shards to the coordinator's training
		// runs; the coordinator alone owns the run's outputs (tables,
		// figures, traces, progress lines).
		*verbose, *traceOut, *outDir = false, "", ""
	}

	tableOut := io.Writer(os.Stdout)
	if worker {
		tableOut = io.Discard
	}
	env := experiments.NewEnv(*seed, *quick, tableOut)
	env.Threads = *threads
	env.Dist = sess
	env.Shards = dcli.Shards
	if *cacheDir != "" {
		store, err := artifact.Open(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dacrepro: %v\n", err)
			os.Exit(1)
		}
		env.Cache = store
		env.Resume = *resume
		if !worker {
			defer func() {
				st := store.Stats()
				fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses, %d bytes read, %d bytes written\n",
					st.Hits, st.Misses, st.ReadBytes, st.WriteBytes)
			}()
		}
	} else if *resume {
		fmt.Fprintln(os.Stderr, "dacrepro: -resume requires -cache-dir")
		os.Exit(2)
	}
	if *verbose {
		env.Log = os.Stderr
	}
	if *traceOut != "" {
		obs.Enable(true)
		env.Trace = obs.NewTracer()
		defer func() {
			if err := env.Trace.WriteFile(*traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "dacrepro: trace-out:", err)
			}
		}()
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "dacrepro: %v\n", err)
			os.Exit(1)
		}
		env.OutDir = *outDir
	}

	all := map[string]func(){
		"table1":    func() { experiments.Table1(env) },
		"table2":    func() { experiments.Table2(env) },
		"table3":    func() { experiments.Table3(env) },
		"table4":    func() { experiments.Table4(env) },
		"fig2":      func() { experiments.Fig2(env) },
		"fig3":      func() { experiments.Fig3(env) },
		"fig4":      func() { experiments.Fig4(env) },
		"fig5":      func() { experiments.Fig5(env) },
		"ablations": func() { runAblations(env) },
		"pruning":   func() { experiments.AblationPruning(env) },
	}
	order := []string{"table1", "table2", "table3", "table4", "fig2", "fig3", "fig4", "fig5", "ablations"}

	for _, name := range args {
		if name == "all" {
			for _, n := range order {
				fmt.Printf("### %s\n\n", n)
				all[n]()
			}
			continue
		}
		f, ok := all[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "dacrepro: unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Printf("### %s\n\n", name)
		f()
	}

	if err := fleet.Wait(); err != nil {
		fmt.Fprintf(os.Stderr, "dacrepro: %v\n", err)
		os.Exit(1)
	}
}

func runAblations(env *experiments.Env) {
	experiments.AblationPreprocess(env)
	experiments.AblationLayerwise(env)
	experiments.AblationQuantizer(env)
	experiments.AblationFinetune(env)
	experiments.AblationPruning(env)
}

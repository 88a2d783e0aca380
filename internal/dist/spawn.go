package dist

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// CLI bundles the multi-process training flags shared by the training
// binaries (dacrepro, dacrelease). Register wires them into a FlagSet;
// Resolve turns the parsed values into a Session (and, on the
// self-spawning coordinator path, a Fleet of worker processes).
type CLI struct {
	// Procs is the data-parallel process count. >1 makes this process the
	// coordinator and self-spawns Procs-1 workers re-executing the same
	// command line.
	Procs int
	// Shards is the semantic gradient-shard count per batch (0 defaults to
	// the process count). Results depend on Shards but never on Procs.
	Shards int
	// Worker marks this process as a spawned worker joining an existing
	// run; Dir, Rank, and ClusterProcs locate it.
	Worker bool
	// Coordinator makes this process rank 0 of workers started by hand
	// with the same Dir, instead of self-spawning them.
	Coordinator bool
	// Dir is the run's dist directory (see Options.Dir). Empty on the
	// self-spawn path means a temporary one, created and removed by Fleet.
	Dir string
	// Rank is this process's rank (workers only).
	Rank int
	// ClusterProcs is the total process count when joining (-worker or
	// -coordinator); the self-spawn path uses Procs.
	ClusterProcs int
}

// Register declares the flags on fs (conventionally flag.CommandLine).
func (c *CLI) Register(fs *flag.FlagSet) {
	fs.IntVar(&c.Procs, "procs", 1, "data-parallel training processes; >1 self-spawns procs-1 workers and coordinates them (results are bit-identical for every value)")
	fs.IntVar(&c.Shards, "shards", 0, "gradient shards per batch, a semantic knob results depend on (0 = the process count; must be >= processes)")
	fs.BoolVar(&c.Worker, "worker", false, "run as a data-parallel worker joining an existing run (normally set by the coordinator's self-spawn)")
	fs.BoolVar(&c.Coordinator, "coordinator", false, "coordinate workers started by hand with the same -dist-dir instead of self-spawning them")
	fs.StringVar(&c.Dir, "dist-dir", "", "directory where the coordinator leaves its address and session secret for workers to find; every rank of a run names the same one (default: a temporary directory on the self-spawn path)")
	fs.IntVar(&c.Rank, "dist-rank", 0, "this process's rank within the run (with -worker)")
	fs.IntVar(&c.ClusterProcs, "dist-procs", 0, "total process count of the joined run (with -worker or -coordinator)")
}

// Resolve validates the parsed flags and returns this process's Session
// (nil for plain single-process runs) plus, on the self-spawning
// coordinator path, the spawned worker Fleet. argv is the full original
// argument list after the program name (os.Args[1:]); workers are spawned
// with it verbatim plus the -worker/-dist-* flags, so they execute the
// same experiment sequence as the coordinator — which is exactly what the
// lockstep protocol requires.
func (c *CLI) Resolve(argv []string) (*Session, *Fleet, error) {
	switch {
	case c.Worker:
		if c.Dir == "" || c.ClusterProcs < 2 || c.Rank < 1 || c.Rank >= c.ClusterProcs {
			return nil, nil, errors.New("dist: -worker requires -dist-dir, -dist-procs >= 2, and 1 <= -dist-rank < -dist-procs")
		}
		s, err := New(Options{Dir: c.Dir, Rank: c.Rank, Procs: c.ClusterProcs})
		return s, nil, err
	case c.Coordinator:
		if c.Dir == "" || c.ClusterProcs < 2 {
			return nil, nil, errors.New("dist: -coordinator requires -dist-dir and -dist-procs >= 2")
		}
		s, err := New(Options{Dir: c.Dir, Rank: 0, Procs: c.ClusterProcs})
		return s, nil, err
	case c.Procs > 1:
		f := &Fleet{dir: c.Dir}
		var err error
		if f.dir == "" {
			f.dir, err = os.MkdirTemp("", "dacdist-")
			f.ownsDir = err == nil
		}
		if err == nil {
			f.sess, err = New(Options{Dir: f.dir, Rank: 0, Procs: c.Procs})
		}
		if err == nil {
			err = f.spawn(argv, c.Procs)
		}
		if err != nil {
			f.Wait()
			return nil, nil, err
		}
		return f.sess, f, nil
	default:
		return nil, nil, nil
	}
}

// Fleet tracks a self-spawning coordinator's session and workers.
type Fleet struct {
	cmds    []*exec.Cmd
	sess    *Session
	dir     string
	ownsDir bool
}

// spawn starts procs-1 worker copies of this executable, each re-running
// argv plus the worker flags. Worker stderr is inherited (their mains keep
// workers quiet apart from failures); stdout is discarded.
func (f *Fleet) spawn(argv []string, procs int) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("dist: locate executable: %w", err)
	}
	for rank := 1; rank < procs; rank++ {
		// The worker flags go *before* the inherited argv: the flag package
		// stops at the first positional argument (e.g. dacrepro's experiment
		// names), so anything appended after one would never be parsed.
		args := append([]string{
			"-worker",
			"-dist-dir", f.dir,
			"-dist-rank", strconv.Itoa(rank),
			"-dist-procs", strconv.Itoa(procs),
		}, argv...)
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("dist: spawn worker %d: %w", rank, err)
		}
		f.cmds = append(f.cmds, cmd)
	}
	return nil
}

// Wait closes the coordinator's session, so a worker still waiting on it
// fails at once, then reaps every worker and removes the dist directory if
// the fleet created it. It returns the first worker failure (if any).
func (f *Fleet) Wait() error {
	if f == nil {
		return nil
	}
	if f.sess != nil {
		f.sess.Close()
	}
	var first error
	for i, cmd := range f.cmds {
		if err := cmd.Wait(); err != nil && first == nil {
			first = fmt.Errorf("dist: worker %d: %w", i+1, err)
		}
	}
	if f.ownsDir {
		os.RemoveAll(f.dir)
	}
	return first
}

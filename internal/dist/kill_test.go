package dist_test

// Failure paths with real processes: a rank SIGKILLed mid-run ends its
// connection, and its peer's run must fail within seconds with an error
// naming the dead rank, instead of waiting out the session timeout. The
// test re-executes its own binary as the two ranks of the run.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/train"
)

const (
	killDirEnv  = "DIST_KILL_TEST_DIR"
	killRankEnv = "DIST_KILL_TEST_RANK"
)

// killHelper is one rank of a run far longer than the test: it prints
// "running" after its first epoch and trains until it is killed or its
// run fails, which it reports on stderr before exiting 3.
func killHelper(dir string, rank int) {
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintln(os.Stderr, p)
			os.Exit(3)
		}
	}()
	// The timeout is far above the test's 5 s bound, so only a noticed
	// end of connection can pass it.
	sess, err := dist.New(dist.Options{Dir: dir, Rank: rank, Procs: 2, Timeout: time.Minute})
	if err != nil {
		panic(err)
	}
	x, y, build := shapeProblem()
	train.Run(build(), x, y, train.Config{
		Epochs: 1 << 20, BatchSize: shapeBatch,
		Optimizer: train.NewSGD(0.05, 0.9, 0), Seed: 23,
		Shards: 2, Ctx: compute.New(1), Dist: sess, DistToken: "kill-test",
		Log: func(st train.EpochStats) {
			if st.Epoch == 0 {
				fmt.Println("running")
			}
		},
	})
}

func TestKilledRankFailsPeer(t *testing.T) {
	if dir := os.Getenv(killDirEnv); dir != "" {
		rank, err := strconv.Atoi(os.Getenv(killRankEnv))
		if err != nil {
			t.Fatalf("helper: %v", err)
		}
		killHelper(dir, rank)
		return
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, victim := range []int{1, 0} {
		survivor := 1 - victim
		t.Run(fmt.Sprintf("rank%dKilled", victim), func(t *testing.T) {
			dir := t.TempDir()
			cmds := make([]*exec.Cmd, 2)
			var stderr [2]bytes.Buffer
			var progress *bufio.Reader
			for r := range cmds {
				cmd := exec.Command(exe, "-test.run=^TestKilledRankFailsPeer$", "-test.count=1")
				cmd.Env = append(os.Environ(), killDirEnv+"="+dir, killRankEnv+"="+strconv.Itoa(r))
				cmd.Stderr = &stderr[r]
				if r == 0 {
					out, err := cmd.StdoutPipe()
					if err != nil {
						t.Fatal(err)
					}
					progress = bufio.NewReader(out)
				}
				if err := cmd.Start(); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cmd.Process.Kill() })
				cmds[r] = cmd
			}
			if line, err := progress.ReadString('\n'); line != "running\n" {
				for _, cmd := range cmds {
					cmd.Process.Kill()
					cmd.Wait()
				}
				t.Fatalf("rank 0 never reported progress (%q, %v); stderr:\n%s\n%s", line, err, &stderr[0], &stderr[1])
			}

			if err := cmds[victim].Process.Kill(); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			done := make(chan error, 1)
			go func() { done <- cmds[survivor].Wait() }()
			select {
			case err := <-done:
				if err == nil {
					t.Fatalf("rank %d exited 0 after rank %d was killed", survivor, victim)
				}
				if msg := stderr[survivor].String(); !strings.Contains(msg, fmt.Sprintf("rank %d", victim)) {
					t.Fatalf("rank %d failed (%v) without naming rank %d: %s", survivor, err, victim, msg)
				}
				t.Logf("rank %d failed %v after the kill: %s", survivor, time.Since(start).Round(time.Millisecond), strings.TrimSpace(stderr[survivor].String()))
			case <-time.After(5 * time.Second):
				t.Fatalf("rank %d still running 5 s after rank %d was killed", survivor, victim)
			}
			cmds[victim].Wait()
		})
	}
}

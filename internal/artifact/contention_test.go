package artifact

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"testing"
)

// Processes share one store through -cache-dir: the coordinator and the
// workers of a multi-process run, and separate invocations that reuse a
// cache. They trust the store's publication to be atomic across OS process
// boundaries: a reader either misses a key or reads one writer's complete
// bytes, never a torn mix. This test pins that with real subprocesses —
// the test re-executes its own binary in a helper mode where each of
// several processes hammers Put on the same key with a distinct payload —
// and then checks the surviving entry is exactly one writer's payload.

const (
	contentionDirEnv  = "ARTIFACT_CONTENTION_DIR"
	contentionSeedEnv = "ARTIFACT_CONTENTION_SEED"
	contentionProcs   = 5
	contentionPuts    = 25
	contentionBytes   = 1 << 18
)

func contentionKey() string {
	return NewKey("contention-test/v1").Str("target", "shared").Sum()
}

// contentionHelper is the subprocess body: publish the same key
// contentionPuts times, each write filling the payload with this writer's
// seed byte.
func contentionHelper(dir string, seed byte) error {
	store, err := Open(dir)
	if err != nil {
		return err
	}
	buf := make([]byte, contentionBytes)
	for i := range buf {
		buf[i] = seed
	}
	key := contentionKey()
	for i := 0; i < contentionPuts; i++ {
		if err := store.Put("contention-test", key, func(w io.Writer) error {
			_, err := w.Write(buf)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

func TestCrossProcessPutAtomicity(t *testing.T) {
	if dir := os.Getenv(contentionDirEnv); dir != "" {
		seed, err := strconv.Atoi(os.Getenv(contentionSeedEnv))
		if err != nil {
			t.Fatalf("helper: %v", err)
		}
		if err := contentionHelper(dir, byte(seed)); err != nil {
			t.Fatalf("helper: %v", err)
		}
		return
	}

	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmds := make([]*exec.Cmd, contentionProcs)
	for i := range cmds {
		cmd := exec.Command(exe, "-test.run=^TestCrossProcessPutAtomicity$", "-test.count=1")
		cmd.Env = append(os.Environ(),
			contentionDirEnv+"="+dir,
			fmt.Sprintf("%s=%d", contentionSeedEnv, i+1))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start writer %d: %v", i, err)
		}
		cmds[i] = cmd
	}
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}

	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := store.Keys("contention-test")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != contentionKey() {
		t.Fatalf("store holds keys %v, want exactly [%s]", keys, contentionKey())
	}
	rc, err := store.Get("contention-test", contentionKey())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	got, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != contentionBytes {
		t.Fatalf("entry is %d bytes, want %d (torn or truncated write)", len(got), contentionBytes)
	}
	seed := got[0]
	if seed < 1 || seed > contentionProcs {
		t.Fatalf("entry starts with byte %d, not a writer seed in [1,%d]", seed, contentionProcs)
	}
	for i, b := range got {
		if b != seed {
			t.Fatalf("entry mixes writers: byte %d is %d, byte 0 was %d", i, b, seed)
		}
	}
}

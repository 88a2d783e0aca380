package dist

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// open starts rank's session on dir, closed when the test ends.
func open(t *testing.T, dir string, rank, procs int, timeout time.Duration) *Session {
	t.Helper()
	s, err := New(Options{Dir: dir, Rank: rank, Procs: procs, Timeout: timeout})
	if err != nil {
		t.Fatalf("New(rank=%d): %v", rank, err)
	}
	t.Cleanup(s.Close)
	return s
}

func testPair(t *testing.T, timeout time.Duration) (coord, worker *Session) {
	t.Helper()
	dir := t.TempDir()
	return open(t, dir, 0, 2, timeout), open(t, dir, 1, 2, timeout)
}

func TestSessionValidation(t *testing.T) {
	dir := t.TempDir()
	for _, o := range []Options{
		{Dir: dir, Rank: 0, Procs: 1},
		{Dir: dir, Rank: 2, Procs: 2},
		{Dir: dir, Rank: -1, Procs: 2},
		{Dir: "", Rank: 0, Procs: 2},
	} {
		if _, err := New(o); err == nil {
			t.Fatalf("New(%+v) succeeded, want error", o)
		}
	}
	coord, worker := testPair(t, 5*time.Second)
	if !coord.Coordinator() || coord.Worker() || coord.Rank() != 0 {
		t.Fatalf("rank 0 misclassified: %+v", coord)
	}
	if worker.Coordinator() || !worker.Worker() || worker.Rank() != 1 || worker.Procs() != 2 {
		t.Fatalf("rank 1 misclassified: %+v", worker)
	}

	// A worker with no coordinator gives up after its timeout.
	start := time.Now()
	if _, err := New(Options{Dir: t.TempDir(), Rank: 1, Procs: 2, Timeout: 50 * time.Millisecond}); err == nil ||
		!strings.Contains(err.Error(), "no coordinator") || time.Since(start) > 5*time.Second {
		t.Fatalf("worker without coordinator: err = %v after %v", err, time.Since(start))
	}
}

func TestBeginAwaitComplete(t *testing.T) {
	coord, worker := testPair(t, 5*time.Second)
	man := Manifest{Token: "run-a", Procs: 2, Shards: 2, BatchSize: 8,
		Steps: 6, Epochs: 2, ParamCount: 100, Moments: 4}
	if err := coord.Begin(man); err != nil {
		t.Fatalf("begin: %v", err)
	}
	got, completed, err := worker.AwaitBegin("run-a")
	if err != nil || completed {
		t.Fatalf("await: completed=%v err=%v", completed, err)
	}
	if got != man {
		t.Fatalf("manifest mismatch: %+v != %+v", got, man)
	}

	// A run the coordinator satisfied from cache: complete without begin.
	if err := coord.Complete("run-b"); err != nil {
		t.Fatalf("complete: %v", err)
	}
	_, completed, err = worker.AwaitBegin("run-b")
	if err != nil || !completed {
		t.Fatalf("await completed run: completed=%v err=%v", completed, err)
	}

	// A verdict for another run means the ranks diverged: an error, never
	// a silently skipped or mismatched run.
	if err := coord.Complete("run-c"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := worker.AwaitBegin("run-d"); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("await with a stale verdict queued: err = %v, want divergence", err)
	}

	if err := coord.Begin(Manifest{}); err == nil {
		t.Fatal("Begin with empty token succeeded")
	}
}

// sessions opens procs ranks on one directory concurrently, as separate
// processes would start.
func sessions(t *testing.T, procs int, timeout time.Duration) []*Session {
	t.Helper()
	dir := t.TempDir()
	ss := make([]*Session, procs)
	ss[0] = open(t, dir, 0, procs, timeout)
	for r := 1; r < procs; r++ {
		ss[r] = open(t, dir, r, procs, timeout)
	}
	return ss
}

// TestExchangeGatherScatter runs one step's exchange across 3 ranks over 4
// shards (rank 2 owns two) and checks that every rank ends up with every
// other shard's partial, in shard order, including the worker-to-worker
// shards the coordinator forwards.
func TestExchangeGatherScatter(t *testing.T) {
	const procs, shards = 3, 4
	ss := sessions(t, procs, 5*time.Second)
	man := Manifest{Token: "run", Procs: procs, Shards: shards, ParamCount: 3, Moments: 2}
	partial := func(k int) *Partial {
		return &Partial{Token: "run", Epoch: 1, Step: 2, Shard: k, Loss: float64(k),
			Grad: []float64{float64(k), 1, 2}, BNMoments: []float64{0.5, float64(-k)}}
	}
	got := make([][]*Partial, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for r, s := range ss {
		wg.Add(1)
		go func(r int, s *Session) {
			defer wg.Done()
			if r == 0 {
				errs[r] = s.Begin(man)
			} else {
				_, _, errs[r] = s.AwaitBegin("run")
			}
			if errs[r] != nil {
				return
			}
			lo, hi := RankShards(shards, procs, r)
			var own []*Partial
			for k := lo; k < hi; k++ {
				own = append(own, partial(k))
			}
			got[r], errs[r] = s.Exchange(own)
		}(r, s)
	}
	wg.Wait()
	for r := range ss {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		lo, hi := RankShards(shards, procs, r)
		if len(got[r]) != shards-(hi-lo) {
			t.Fatalf("rank %d got %d partials, want %d", r, len(got[r]), shards-(hi-lo))
		}
		prev := -1
		for _, p := range got[r] {
			want := partial(p.Shard)
			if p.Shard <= prev || (p.Shard >= lo && p.Shard < hi) || p.Loss != want.Loss ||
				p.Grad[0] != want.Grad[0] || p.BNMoments[1] != want.BNMoments[1] {
				t.Fatalf("rank %d: bad partial %+v after shard %d", r, p, prev)
			}
			prev = p.Shard
		}
	}
}

// A worker whose partial is not the one the step expects fails the
// coordinator's exchange with an error naming it.
func TestExchangeRejectsStalePartial(t *testing.T) {
	coord, worker := testPair(t, 5*time.Second)
	man := Manifest{Token: "run", Procs: 2, Shards: 2, ParamCount: 1}
	if err := coord.Begin(man); err != nil {
		t.Fatal(err)
	}
	if _, _, err := worker.AwaitBegin("run"); err != nil {
		t.Fatal(err)
	}
	stale := &Partial{Token: "run", Epoch: 0, Step: 4, Shard: 1, Grad: []float64{1}}
	go worker.Exchange([]*Partial{stale}) // fails once the coordinator closes
	_, err := coord.Exchange([]*Partial{{Token: "run", Epoch: 0, Step: 5, Shard: 0, Grad: []float64{1}}})
	if err == nil || !strings.Contains(err.Error(), "from rank 1") || !strings.Contains(err.Error(), "step 4") {
		t.Fatalf("stale partial: err = %v", err)
	}
}

// A connected peer that goes silent fails the exchange after the timeout
// instead of hanging it.
func TestExchangeTimesOutOnSilentPeer(t *testing.T) {
	coord, worker := testPair(t, 100*time.Millisecond)
	if err := coord.Begin(Manifest{Token: "run", Procs: 2, Shards: 2, ParamCount: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := worker.AwaitBegin("run"); err != nil {
		t.Fatal(err)
	}
	_, err := worker.Exchange([]*Partial{{Token: "run", Shard: 1, Grad: []float64{1}}})
	if !errors.Is(err, os.ErrDeadlineExceeded) || !strings.Contains(err.Error(), "rank 0") {
		t.Fatalf("err = %v, want a deadline error naming rank 0", err)
	}
}

// Only a process that read the rendezvous file may join: a hello without
// the session secret is dropped, and the real worker is still admitted.
func TestHelloWithoutSecretRejected(t *testing.T) {
	dir := t.TempDir()
	coord := open(t, dir, 0, 2, 5*time.Second)
	path := filepath.Join(dir, "rendezvous")
	if fi := must(os.Stat(path)); fi.Mode().Perm() != 0o600 {
		t.Fatalf("rendezvous file mode %v, want 0600", fi.Mode().Perm())
	}
	addr := strings.Fields(string(must(os.ReadFile(path))))[0]
	intruder, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer intruder.Close()
	if err := writeFrames(intruder, binary.BigEndian.AppendUint32(make([]byte, 32), 1)); err != nil {
		t.Fatal(err)
	}
	worker := open(t, dir, 1, 2, 5*time.Second)
	if err := coord.Complete("run"); err != nil {
		t.Fatal(err)
	}
	if _, completed, err := worker.AwaitBegin("run"); err != nil || !completed {
		t.Fatalf("worker: completed=%v err=%v", completed, err)
	}
	intruder.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := intruder.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("intruder read: err = %v, want EOF (connection dropped)", err)
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestRankShardsPartition(t *testing.T) {
	for _, tc := range []struct{ shards, procs int }{
		{1, 1}, {4, 1}, {4, 2}, {4, 4}, {7, 3}, {8, 4},
	} {
		covered := make([]int, tc.shards)
		prevHi := 0
		for r := 0; r < tc.procs; r++ {
			lo, hi := RankShards(tc.shards, tc.procs, r)
			if lo != prevHi {
				t.Fatalf("shards=%d procs=%d rank=%d: lo=%d, want %d (contiguous)", tc.shards, tc.procs, r, lo, prevHi)
			}
			if hi < lo {
				t.Fatalf("shards=%d procs=%d rank=%d: empty-negative range [%d,%d)", tc.shards, tc.procs, r, lo, hi)
			}
			for k := lo; k < hi; k++ {
				covered[k]++
			}
			prevHi = hi
		}
		if prevHi != tc.shards {
			t.Fatalf("shards=%d procs=%d: ranks cover [0,%d), want [0,%d)", tc.shards, tc.procs, prevHi, tc.shards)
		}
		for k, c := range covered {
			if c != 1 {
				t.Fatalf("shards=%d procs=%d: shard %d owned by %d ranks", tc.shards, tc.procs, k, c)
			}
		}
	}
}

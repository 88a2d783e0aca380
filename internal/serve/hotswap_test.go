package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/compute"
)

// Hot-swap under fire: concurrent clients hammer Predict on a model name
// while another goroutine keeps swapping that name between two releases
// (and occasionally removing it outright). The contract under the churn:
// every answered request is bit-identical to a serial forward pass of
// either release — never a torn mix — and every unanswered request fails
// with a clean sentinel (ErrClosed from a drained engine, ErrQueueFull
// from backpressure, or a miss between Remove and the next Load). Runs
// under -race via `make race-fast`.
func TestRegistryHotSwapUnderFire(t *testing.T) {
	pathA := writeReleased(t, 60, true)
	pathB := writeReleased(t, 61, false)

	refA := referenceModel(t, pathA)
	refA.SetCtx(compute.Serial())
	refB := referenceModel(t, pathB)
	refB.SetCtx(compute.Serial())

	const clients = 4
	inputs := testInputs(clients, refA.InputLen(), 62)
	wantA := make([][]float64, clients)
	wantB := make([][]float64, clients)
	for i, in := range inputs {
		rowsA, err := refA.EvalBatch([][]float64{in})
		if err != nil {
			t.Fatal(err)
		}
		rowsB, err := refB.EvalBatch([][]float64{in})
		if err != nil {
			t.Fatal(err)
		}
		wantA[i], wantB[i] = rowsA[0], rowsB[0]
	}

	r := NewRegistry(Options{
		MaxBatch:   4,
		QueueDepth: 64,
		Threads:    1,
	})
	defer r.Close()
	if _, err := r.LoadFile("prod", pathA); err != nil {
		t.Fatal(err)
	}

	matches := func(got, want []float64) bool {
		if len(got) != len(want) {
			return false
		}
		for j := range got {
			if got[j] != want[j] {
				return false
			}
		}
		return true
	}

	stop := make(chan struct{})
	var answered, misses atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			in := inputs[c]
			for {
				select {
				case <-stop:
					return
				default:
				}
				en, ok := r.Get("prod")
				if !ok {
					misses.Add(1) // window between Remove and the next Load
					continue
				}
				pred, err := predictOne(en, in)
				if err != nil {
					if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrQueueFull) {
						t.Errorf("client %d: unclean error under swap: %v", c, err)
						return
					}
					continue
				}
				if !matches(pred.Logits, wantA[c]) && !matches(pred.Logits, wantB[c]) {
					t.Errorf("client %d: logits %v match neither release (torn or mis-routed response)",
						c, pred.Logits)
					return
				}
				answered.Add(1)
			}
		}(c)
	}

	// The swapper: alternate the two releases with an outright Remove every
	// few swaps, so clients see both the drain path and the miss path.
	const swaps = 40
	for s := 0; s < swaps; s++ {
		path := pathA
		if s%2 == 1 {
			path = pathB
		}
		if s%7 == 3 {
			r.Remove("prod")
		}
		if _, err := r.LoadFile("prod", path); err != nil {
			t.Fatalf("swap %d: %v", s, err)
		}
	}
	close(stop)
	wg.Wait()

	if answered.Load() == 0 {
		t.Fatal("no request was ever answered under swap churn")
	}
	t.Logf("hot-swap fire: %d answered, %d misses across %d swaps",
		answered.Load(), misses.Load(), swaps)
}

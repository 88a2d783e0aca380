package serve

import (
	"sync"
	"testing"

	"repro/internal/compute"
)

// The serving-side determinism contract, in the style of
// internal/nn/determinism_test.go: many parallel clients hammering one
// registry model must each get responses bit-identical to a serial
// single-sample forward pass of an offline import of the same released
// file — whatever batches their requests landed in and whatever the
// engine's thread count. Run under -race by `make race-fast`.
func TestConcurrentPredictBitIdenticalToSerial(t *testing.T) {
	path := writeReleased(t, 50, true)

	// Offline reference: serial context, one sample at a time.
	ref := referenceModel(t, path)
	ref.SetCtx(compute.Serial())
	const clients = 8
	const perClient = 6
	inputs := testInputs(clients*perClient, ref.InputLen(), 51)
	want := make([][]float64, len(inputs))
	for i, in := range inputs {
		rows, err := ref.EvalBatch([][]float64{in})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rows[0]
	}

	for _, threads := range []int{1, 3} {
		opts := testOpts(5, 64) // deliberately lopsided vs request count
		opts.Threads = threads
		r := NewRegistry(opts)
		en, err := r.LoadFile("demo", path)
		if err != nil {
			t.Fatal(err)
		}

		got := make([][]float64, len(inputs))
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := 0; k < perClient; k++ {
					i := c*perClient + k
					pred, err := predictOne(en, inputs[i])
					if err != nil {
						t.Errorf("client %d request %d: %v", c, k, err)
						return
					}
					got[i] = pred.Logits
				}
			}(c)
		}
		wg.Wait()

		for i := range inputs {
			if got[i] == nil {
				t.Fatalf("threads=%d: request %d unanswered", threads, i)
			}
			for j, v := range got[i] {
				if v != want[i][j] {
					t.Fatalf("threads=%d: request %d logit %d: served %v != serial %v",
						threads, i, j, v, want[i][j])
				}
			}
		}

		snap := en.Stats()
		if snap.Served != int64(len(inputs)) {
			t.Fatalf("threads=%d: served %d, want %d", threads, snap.Served, len(inputs))
		}
		var histTotal int64
		for size, n := range snap.BatchHist {
			if size > 5 {
				t.Fatalf("threads=%d: batch of size %d exceeds MaxBatch 5", threads, size)
			}
			histTotal += int64(size) * n
		}
		if histTotal != int64(len(inputs)) {
			t.Fatalf("threads=%d: histogram covers %d samples, want %d", threads, histTotal, len(inputs))
		}
		r.Close()
	}
}

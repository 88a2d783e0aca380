package serve

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// stallFirstFlush makes e's first flush block in the beforeFlush hook. It
// returns a channel closed once the engine is stalled there and a release
// function that lets the flush proceed. Requests submitted while the
// engine is stalled queue up behind it, which is how tests fix batch
// composition without any timing assumption.
func stallFirstFlush(e *Engine) (stalled <-chan struct{}, release func()) {
	inFlush := make(chan struct{})
	gate := make(chan struct{})
	var hooked sync.Once
	e.beforeFlush = func(int) {
		hooked.Do(func() {
			close(inFlush)
			<-gate
		})
	}
	return inFlush, func() { close(gate) }
}

// submitAsync submits every input on its own goroutine, reporting any
// error through t, and returns the group to wait on.
func submitAsync(t *testing.T, e *Engine, inputs [][]float64) *sync.WaitGroup {
	var wg sync.WaitGroup
	for _, in := range inputs {
		wg.Add(1)
		go func(in []float64) {
			defer wg.Done()
			if _, err := submitOne(e, in); err != nil {
				t.Errorf("submit: %v", err)
			}
		}(in)
	}
	return &wg
}

// waitQueueLen spins until n requests sit in e's queue.
func waitQueueLen(e *Engine, n int) {
	for e.QueueLen() < n {
		runtime.Gosched()
	}
}

// A lone request is answered as soon as the engine is free: no tick, no
// timer, and a batch far from MaxBatch.
func TestEngineFlushesLoneSubmitWithoutTick(t *testing.T) {
	m := testModel(2)
	e := newEngine(m, "test", testOpts(8, 16).withDefaults())
	defer e.Close()

	done := make(chan error, 1)
	var pred Prediction
	go func() {
		var err error
		pred, err = submitOne(e, testInputs(1, m.InputLen(), 11)[0])
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("lone submit not answered: the engine waited instead of flushing")
	}
	if len(pred.Probs) != 4 || len(pred.Logits) != 4 {
		t.Fatalf("malformed prediction %+v", pred)
	}
	if snap := e.Stats(); snap.Batches != 1 || snap.BatchHist[1] != 1 || snap.Served != 1 {
		t.Fatalf("expected one size-1 batch, got %+v", snap)
	}
}

// Requests that arrive while a flush is computing are coalesced into the
// following batches: full MaxBatch batches first, then the remainder at
// once, with nothing left waiting.
func TestEngineCoalescesBehindStalledFlush(t *testing.T) {
	m := testModel(1)
	e := newEngine(m, "test", testOpts(4, 16).withDefaults())
	defer e.Close()
	stalled, release := stallFirstFlush(e)

	// The first submission starts a flush of one, which stalls...
	first := submitAsync(t, e, testInputs(1, m.InputLen(), 10))
	<-stalled
	// ...so these six queue behind it: one full batch of 4, then 2.
	rest := submitAsync(t, e, testInputs(6, m.InputLen(), 12))
	waitQueueLen(e, 6)
	release()
	first.Wait()
	rest.Wait()

	snap := e.Stats()
	if want := map[int]int64{1: 1, 4: 1, 2: 1}; snap.Batches != 3 || !reflect.DeepEqual(snap.BatchHist, want) {
		t.Fatalf("batch histogram = %v over %d batches, want %v", snap.BatchHist, snap.Batches, want)
	}
	if snap.Served != 7 || snap.Accepted != 7 {
		t.Fatalf("expected 7 served/accepted, got %+v", snap)
	}
}

// When the engine is busy and the queue is full, Submit must fail fast
// with ErrQueueFull instead of blocking — the 429 backpressure path.
func TestEngineBackpressure(t *testing.T) {
	m := testModel(3)
	e := newEngine(m, "test", testOpts(2, 2).withDefaults())
	defer e.Close()
	stalled, release := stallFirstFlush(e)

	// The first submission starts a flush, which stalls in the hook.
	wg := submitAsync(t, e, testInputs(1, m.InputLen(), 12))
	<-stalled
	// The engine goroutine is stalled, so these fill the queue...
	queued := submitAsync(t, e, testInputs(2, m.InputLen(), 13))
	waitQueueLen(e, 2)
	// ...and the next submission must bounce.
	if _, err := submitOne(e, testInputs(1, m.InputLen(), 14)[0]); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if snap := e.Stats(); snap.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", snap.Rejected)
	}
	release()
	wg.Wait()
	queued.Wait()
}

// Close must answer every accepted request (drain), then reject new ones.
func TestEngineCloseDrains(t *testing.T) {
	m := testModel(4)
	e := newEngine(m, "test", testOpts(8, 16).withDefaults())
	stalled, release := stallFirstFlush(e)

	inputs := testInputs(3, m.InputLen(), 15)
	wg := submitAsync(t, e, inputs[:1])
	<-stalled
	queued := submitAsync(t, e, inputs[1:])
	waitQueueLen(e, 2)
	// Close while two requests are still queued behind the stalled flush:
	// the drain pass must answer them.
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	for {
		e.mu.Lock()
		c := e.closed
		e.mu.Unlock()
		if c {
			break
		}
		runtime.Gosched()
	}
	release()
	<-closed
	wg.Wait()
	queued.Wait()
	if snap := e.Stats(); snap.Served != 3 {
		t.Fatalf("drain served %d, want 3: %+v", snap.Served, snap)
	}
	if _, err := submitOne(e, inputs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close err = %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

// Submissions with the wrong input length fail up front.
func TestEngineRejectsBadInput(t *testing.T) {
	m := testModel(5)
	e := newEngine(m, "test", testOpts(4, 8).withDefaults())
	defer e.Close()
	if _, err := submitOne(e, make([]float64, m.InputLen()+1)); err == nil {
		t.Fatal("expected input-length error")
	}
}

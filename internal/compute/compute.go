// Package compute provides the execution context threaded through the
// tensor → nn → train stack: a goroutine worker pool with per-worker
// reusable scratch arenas.
//
// # Determinism contract
//
// The whole evaluation pipeline must be bit-reproducible from a seed — the
// malicious-trainer threat model is only auditable if the released weights
// can be re-derived exactly — so parallelism here never introduces
// scheduling-dependent floating-point orders. The rules:
//
//   - For and ForChunks give no ordering or placement guarantees. Callers
//     may only write to locations owned by their index (or chunk); i.e. they
//     express maps, not reductions.
//   - Reductions (parameter gradients summed over a batch) go through
//     per-index partial buffers that the caller reduces serially in index
//     order afterwards. Because the partial for index i is computed
//     identically no matter which worker runs it, and the final reduction
//     order is fixed, results are bit-identical for every thread count —
//     including Threads=1, which runs the same algorithm inline.
//
// A Ctx may be driven by one goroutine at a time (layer state imposes the
// same constraint already); the workers it owns are internal.
package compute

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Ctx is an execution context: a fixed-size worker pool plus one scratch
// Arena per worker. The zero number of threads is not valid; construct with
// New or Get.
type Ctx struct {
	threads int
	arenas  []*Arena
	tasks   chan task
	// driving is 1 while a goroutine is inside For/ForChunks. The
	// single-driver rule has always been part of the contract; now that
	// serving shares models across concurrent requests, the cheap CAS here
	// turns an accidental second driver (a silent data race over arenas and
	// layer state) into an immediate panic at the entry point.
	driving int32

	m *ctxMetrics
}

// ctxMetrics are the pool's observability counters, resolved once at
// construction from the shared obs registry (contexts with equal worker
// indices share series — the counters are process-wide totals). Updates
// happen only when obs.Enabled(), so the disabled cost of a dispatch is a
// single atomic load.
type ctxMetrics struct {
	// dispatches counts For/ForChunks calls; items counts the loop
	// iterations (For) or elements (ForChunks) they distributed.
	dispatches *obs.Counter
	items      *obs.Counter
	// busy[w] accumulates wall time worker w spent running caller code —
	// the utilization breakdown per worker index.
	busy []*obs.Counter
	// queueWait accumulates time between a task being sent and a worker
	// picking it up; tailWait is the driver's idle time waiting for the
	// slowest worker after finishing its own share (load imbalance).
	queueWait *obs.Counter
	tailWait  *obs.Counter
}

func newCtxMetrics(threads int) *ctxMetrics {
	m := &ctxMetrics{
		dispatches: obs.Default.Counter("compute_dispatches_total"),
		items:      obs.Default.Counter("compute_items_total"),
		queueWait:  obs.Default.Counter("compute_queue_wait_ns_total"),
		tailWait:   obs.Default.Counter("compute_tail_wait_ns_total"),
		busy:       make([]*obs.Counter, threads),
	}
	for w := range m.busy {
		m.busy[w] = obs.Default.Counter(fmt.Sprintf(`compute_worker_busy_ns_total{worker="%d"}`, w))
	}
	return m
}

// task asks the pool to run fn(worker). The worker index rides along with
// the task (rather than being a property of the receiving goroutine) so that
// each index of a dispatch runs exactly once even when one goroutine drains
// several tasks; the index is what owns an arena and a chunk, not the
// goroutine.
type task struct {
	fn     func(worker int)
	worker int
	wg     *sync.WaitGroup
	// sent/queueWait/busy, set only while obs is enabled, let the
	// receiving worker account how long the task sat in the channel and
	// how long it ran.
	sent      time.Time
	queueWait *obs.Counter
	busy      *obs.Counter
}

// New creates a context with the given worker count. threads <= 0 selects
// runtime.GOMAXPROCS(0). The pool's threads-1 background goroutines live
// until Close; the caller's goroutine acts as worker 0.
func New(threads int) *Ctx {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	c := &Ctx{threads: threads, arenas: make([]*Arena, threads), m: newCtxMetrics(threads)}
	for i := range c.arenas {
		c.arenas[i] = &Arena{}
	}
	if threads > 1 {
		// Workers capture the channel value: Close nils c.tasks, and a
		// worker that raced to read the field would trip the race detector
		// even though the contract forbids use-after-Close.
		tasks := make(chan task)
		c.tasks = tasks
		for w := 1; w < threads; w++ {
			go func() {
				for t := range tasks {
					var t0 time.Time
					if t.busy != nil {
						t0 = time.Now()
						t.queueWait.Add(int64(t0.Sub(t.sent)))
					}
					t.fn(t.worker)
					if t.busy != nil {
						t.busy.Add(int64(time.Since(t0)))
					}
					t.wg.Done()
				}
			}()
		}
	}
	return c
}

var (
	sharedMu sync.Mutex
	shared   = map[int]*Ctx{}
)

// epoch anchors the serial paths' busy timing: time.Since(epoch) reads
// only the monotonic clock, where time.Now reads the wall clock too, so a
// timed serial call costs two monotonic reads instead of three clock
// reads. Layer passes make a serial call per layer, so this cost is a
// share of every timed pass.
var epoch = time.Now()

// Get returns a process-shared context for the given worker count
// (threads <= 0 selects runtime.GOMAXPROCS(0) at call time). Shared
// contexts are cached by resolved count and never closed; use New for a
// context you want to Close yourself. Like any Ctx, a shared context must
// be driven by one goroutine at a time.
func Get(threads int) *Ctx {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	c, ok := shared[threads]
	if !ok {
		c = New(threads)
		shared[threads] = c
	}
	return c
}

// Serial returns the shared single-threaded context. It runs everything
// inline on the caller's goroutine and is the default execution context for
// models that were never given one.
func Serial() *Ctx { return Get(1) }

// Threads returns the worker count.
func (c *Ctx) Threads() int { return c.threads }

// Close stops the background workers. The context must be idle; after Close
// it must not be used again. Closing a context obtained from Get or Serial
// is a bug (they are shared process-wide).
func (c *Ctx) Close() {
	if c.tasks != nil {
		close(c.tasks)
		c.tasks = nil
	}
}

// acquire marks the context as driven by the calling goroutine; a second
// concurrent driver panics. Layer passes never nest For/ForChunks calls, so
// re-entry on one goroutine cannot occur.
func (c *Ctx) acquire() {
	if !atomic.CompareAndSwapInt32(&c.driving, 0, 1) {
		panic("compute: Ctx driven by two goroutines concurrently; give each concurrent model its own Ctx (see the package comment)")
	}
}

// release ends the calling goroutine's drive of the context.
func (c *Ctx) release() { atomic.StoreInt32(&c.driving, 0) }

// dispatch runs fn once per worker (including the caller as worker 0) and
// waits for all of them. With timed set (obs enabled), each worker's busy
// time, the tasks' queue wait, and the driver's tail wait are recorded —
// by the worker loop and around the driver's own share, so timing wraps
// no closure and adds no allocation.
func (c *Ctx) dispatch(fn func(worker int), timed bool) {
	var wg sync.WaitGroup
	wg.Add(c.threads - 1)
	for w := 1; w < c.threads; w++ {
		t := task{fn: fn, worker: w, wg: &wg}
		if timed {
			t.sent, t.queueWait, t.busy = time.Now(), c.m.queueWait, c.m.busy[w]
		}
		c.tasks <- t
	}
	if !timed {
		fn(0)
		wg.Wait()
		return
	}
	t0 := time.Now()
	fn(0)
	t1 := time.Now()
	c.m.busy[0].Add(int64(t1.Sub(t0)))
	wg.Wait()
	c.m.tailWait.Add(int64(time.Since(t1)))
}

// For runs fn(i, arena) for every i in [0, n). Iterations are distributed
// dynamically across the pool; the arena passed to fn is reset beforehand
// and owned by fn for the duration of the call. fn may only write to
// locations owned by index i — cross-index sums must go to per-index
// buffers reduced by the caller afterwards (see the package comment).
func (c *Ctx) For(n int, fn func(i int, a *Arena)) {
	if n <= 0 {
		return
	}
	c.acquire()
	defer c.release()
	timed := obs.Enabled()
	if timed {
		c.m.dispatches.Inc()
		c.m.items.Add(int64(n))
	}
	if c.threads == 1 || n == 1 {
		var t0 time.Duration
		if timed {
			t0 = time.Since(epoch)
		}
		a := c.arenas[0]
		for i := 0; i < n; i++ {
			a.Reset()
			fn(i, a)
		}
		if timed {
			c.m.busy[0].Add(int64(time.Since(epoch) - t0))
		}
		return
	}
	var next int64
	c.dispatch(func(worker int) {
		a := c.arenas[worker]
		for {
			i := int(atomic.AddInt64(&next, 1)) - 1
			if i >= n {
				return
			}
			a.Reset()
			fn(i, a)
		}
	}, timed)
}

// ForChunks splits [0, n) into one contiguous chunk per worker and runs
// fn(lo, hi) on each in parallel. It is the low-overhead primitive for
// elementwise maps over large flat ranges; fn may only write to locations
// indexed by [lo, hi). Chunk boundaries depend on the thread count, so fn
// must be a pure per-element map for results to be thread-count-invariant.
func (c *Ctx) ForChunks(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	c.acquire()
	defer c.release()
	timed := obs.Enabled()
	if timed {
		c.m.dispatches.Inc()
		c.m.items.Add(int64(n))
	}
	chunks := c.threads
	if chunks > n {
		chunks = n
	}
	if chunks == 1 {
		var t0 time.Duration
		if timed {
			t0 = time.Since(epoch)
		}
		fn(0, n)
		if timed {
			c.m.busy[0].Add(int64(time.Since(epoch) - t0))
		}
		return
	}
	c.dispatch(func(worker int) {
		if worker >= chunks {
			return
		}
		lo := worker * n / chunks
		hi := (worker + 1) * n / chunks
		if lo < hi {
			fn(lo, hi)
		}
	}, timed)
}

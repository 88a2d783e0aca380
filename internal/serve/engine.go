package serve

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/compute"
	"repro/internal/nn"
)

// Prediction is the serving result for one input sample — the wire shape
// lives in the api package so the gateway and attack tooling share it.
// Engines always fill Probs and Logits (bit-identical to a serial
// single-sample forward pass); serving policies may strip them before the
// response leaves the HTTP layer.
type Prediction = api.Prediction

// Timing is the engine-side breakdown for one answered request, the
// substrate of request tracing, taken from its worst samples: the longest
// wait in the queue before a flush picked a sample up, the longest batched
// forward pass that answered one, and the largest batch one rode in. The
// HTTP layer folds it into trace spans and the X-Dac-Server-Timing
// response header.
type Timing struct {
	QueueWait time.Duration
	Compute   time.Duration
	Batch     int
}

// request is one Submit call. Only the engine goroutine writes its
// answers; it closes done after answering the last sample, the last of
// the request to leave the FIFO queue. enq is when Submit enqueued it.
type request struct {
	inputs [][]float64
	enq    time.Time
	preds  []Prediction
	tm     Timing
	err    error
	done   chan struct{}
}

// slot is one queued sample: inputs[index] of req.
type slot struct {
	req   *request
	index int
}

// Engine micro-batches concurrent prediction requests into shared forward
// passes over one model. A request's samples enter a bounded queue
// together; the engine goroutine is work-conserving: it blocks for the
// first sample, takes whatever else is already queued (flushing each time
// MaxBatch fills), and flushes the remainder at once. Batches therefore
// form only from samples that arrived while the previous pass was
// computing — coalescing under load, no idle wait when the engine is free.
// The engine goroutine is the sole driver of the model's compute context.
type Engine struct {
	model    *nn.Model
	ctx      *compute.Ctx
	inLen    int
	maxBatch int

	queue chan slot
	quit  chan struct{}
	done  chan struct{}

	// mu serializes admission and orders it against Close: a request is
	// checked against the queue's free slots and all its samples are sent
	// under mu, so they sit contiguously and never block the sender (only
	// Submit sends, so free slots can only grow meanwhile); and a
	// submission that saw closed == false has fully enqueued before Close
	// proceeds, so the drain pass answers every queued sample.
	mu     sync.Mutex
	closed bool

	stats *EngineStats

	// now is the engine's clock (time.Now outside tests); the /tracez
	// golden injects a fake clock for deterministic timings.
	now func() time.Time

	// beforeFlush, when set (tests only), runs at the start of every flush
	// while the engine goroutine is busy — the hook deterministic tests use
	// to queue requests behind a stalled engine and so fix batch
	// composition.
	beforeFlush func(batch int)
}

func newEngine(m *nn.Model, name string, opts Options) *Engine {
	e := &Engine{
		model:    m,
		ctx:      compute.New(opts.Threads),
		inLen:    m.InputLen(),
		maxBatch: opts.MaxBatch,
		queue:    make(chan slot, opts.QueueDepth),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		stats:    newEngineStats(name, opts),
		now:      time.Now,
	}
	m.SetCtx(e.ctx)
	go e.loop()
	return e
}

// Submit enqueues one request's inputs and blocks until every one of them
// is evaluated, returning the predictions in input order and the request's
// Timing. Admission is all-or-nothing: it fails fast with ErrQueueFull
// when the queue has fewer free slots than the request has samples (so a
// request larger than QueueDepth is never admitted), and with ErrClosed
// after Close.
func (e *Engine) Submit(inputs [][]float64) ([]Prediction, Timing, error) {
	if len(inputs) == 0 {
		return nil, Timing{}, fmt.Errorf("serve: empty batch")
	}
	for _, in := range inputs {
		if len(in) != e.inLen {
			return nil, Timing{}, fmt.Errorf("serve: input has %d values, model takes %d", len(in), e.inLen)
		}
	}
	r := &request{inputs: inputs, enq: e.now(), preds: make([]Prediction, len(inputs)), done: make(chan struct{})}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, Timing{}, ErrClosed
	}
	if cap(e.queue)-len(e.queue) < len(inputs) {
		e.mu.Unlock()
		e.stats.recordRejected(len(inputs))
		return nil, Timing{}, ErrQueueFull
	}
	// Counted before the sends: a queued sample is always an accepted one.
	e.stats.recordAccepted(len(inputs))
	for i := range inputs {
		e.queue <- slot{r, i}
	}
	e.mu.Unlock()
	<-r.done
	return r.preds, r.tm, r.err
}

// QueueLen reports the current queue depth in samples (excluding samples
// the engine has already pulled into its pending batch).
func (e *Engine) QueueLen() int { return len(e.queue) }

// Stats returns a consistent snapshot of the engine's counters.
func (e *Engine) Stats() Snapshot { return e.stats.snapshot(len(e.queue)) }

// Close rejects new submissions, drains every request already accepted
// through final batched passes, stops the engine goroutine, and releases
// its compute context. Safe to call more than once.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.done
		return
	}
	e.closed = true
	e.mu.Unlock()
	close(e.quit)
	<-e.done
	e.ctx.Close()
}

func (e *Engine) loop() {
	defer close(e.done)
	pending := make([]slot, 0, e.maxBatch)
	for {
		select {
		case s := <-e.queue:
			pending = append(pending, s)
			e.drainQueue(&pending)
		case <-e.quit:
			// Close: closed was set before quit closed, so no new sample
			// can enter the queue and its length is final.
			e.drainQueue(&pending)
			return
		}
	}
}

// drainQueue moves every sample already sitting in the queue into the
// pending batch without blocking, flushing each time the batch fills, then
// flushes the remainder: no sample waits while the engine is free.
func (e *Engine) drainQueue(pending *[]slot) {
	for {
		if len(*pending) == e.maxBatch {
			e.flush(pending)
		}
		select {
		case s := <-e.queue:
			*pending = append(*pending, s)
		default:
			e.flush(pending)
			return
		}
	}
}

// flush evaluates the pending batch in arrival order and writes each
// sample's answer into its request. Per-sample results do not depend on
// how samples were batched. Logits that are not all finite fail their
// request alone with ErrNonFinite.
func (e *Engine) flush(pending *[]slot) {
	batch := *pending
	if len(batch) == 0 {
		return
	}
	*pending = (*pending)[:0]
	if e.beforeFlush != nil {
		e.beforeFlush(len(batch))
	}
	flushStart := e.now()
	inputs := make([][]float64, len(batch))
	for i, s := range batch {
		inputs[i] = s.req.inputs[s.index]
	}
	start := e.now()
	logits, err := e.model.EvalBatch(inputs)
	lat := e.now().Sub(start)
	// Count the batch before answering it, so a caller that reads the
	// stats after its answer arrives always sees its own request.
	if err != nil {
		e.stats.recordError(len(batch))
	} else {
		e.stats.recordBatch(len(batch), lat)
	}
	for i, s := range batch {
		r := s.req
		// Every rider pays the full pass, which is what it waited for;
		// queue wait is enqueue-to-flush-start, clamped at zero against
		// clock skew by the running maximum.
		r.tm.QueueWait = max(r.tm.QueueWait, flushStart.Sub(r.enq))
		r.tm.Compute = max(r.tm.Compute, lat)
		r.tm.Batch = max(r.tm.Batch, len(batch))
		switch {
		case err != nil:
			r.err = err
		case !finite(logits[i]):
			r.err = ErrNonFinite
		default:
			r.preds[s.index] = Prediction{
				Class:  argmax(logits[i]),
				Probs:  softmax(logits[i]),
				Logits: logits[i],
			}
		}
		if s.index == len(r.inputs)-1 {
			close(r.done)
		}
	}
}

// finite reports whether every value of v is neither NaN nor infinite.
func finite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func argmax(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// softmax returns the probabilities of one row of logits, subtracting the
// largest logit first so math.Exp cannot overflow.
func softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	maxV := math.Inf(-1)
	for _, v := range logits {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - maxV)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

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
// substrate of request tracing: how long the request waited in the queue
// before its batch flushed, the batched forward-pass wall time that
// answered it, and the batch size it rode in. The HTTP layer folds it into
// trace spans and the X-Dac-Server-Timing response header.
type Timing struct {
	QueueWait time.Duration
	Compute   time.Duration
	Batch     int
}

type request struct {
	input []float64
	// enq is when Submit enqueued the request; queue wait is measured
	// against the flush that picks it up.
	enq  time.Time
	resp chan result
}

type result struct {
	pred Prediction
	tm   Timing
	err  error
}

// Engine micro-batches concurrent prediction requests into shared forward
// passes over one model. Requests enter a bounded queue; the engine
// goroutine is work-conserving: it blocks for the first request, takes
// whatever else is already queued (flushing each time MaxBatch fills), and
// flushes the remainder at once. Batches therefore form only from requests
// that arrived while the previous pass was computing — coalescing under
// load, no idle wait when the engine is free. The engine goroutine is the
// sole driver of the model's compute context.
type Engine struct {
	model    *nn.Model
	ctx      *compute.Ctx
	inLen    int
	maxBatch int

	queue chan *request
	quit  chan struct{}
	done  chan struct{}

	// mu orders Submit enqueues against Close: a submission that saw
	// closed == false has fully enqueued before Close proceeds, so the
	// drain pass answers every queued request and none is stranded.
	mu     sync.RWMutex
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
		queue:    make(chan *request, opts.QueueDepth),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		stats:    newEngineStats(name, opts),
		now:      time.Now,
	}
	m.SetCtx(e.ctx)
	go e.loop()
	return e
}

// Submit enqueues one input and blocks until its batch is evaluated. It
// fails fast with ErrQueueFull when the queue is at capacity and ErrClosed
// after Close.
func (e *Engine) Submit(input []float64) (Prediction, error) {
	pred, _, err := e.SubmitTimed(input)
	return pred, err
}

// SubmitTimed is Submit returning the request's timing breakdown (queue
// wait, batched compute time, batch size) alongside the prediction — what
// the tracing HTTP layer records as spans and reports in
// X-Dac-Server-Timing.
func (e *Engine) SubmitTimed(input []float64) (Prediction, Timing, error) {
	if len(input) != e.inLen {
		return Prediction{}, Timing{}, fmt.Errorf("serve: input has %d values, model takes %d", len(input), e.inLen)
	}
	r := &request{input: input, enq: e.now(), resp: make(chan result, 1)}
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return Prediction{}, Timing{}, ErrClosed
	}
	select {
	case e.queue <- r:
		e.mu.RUnlock()
		e.stats.recordAccepted()
	default:
		e.mu.RUnlock()
		e.stats.recordRejected()
		return Prediction{}, Timing{}, ErrQueueFull
	}
	res := <-r.resp
	return res.pred, res.tm, res.err
}

// QueueLen reports the current queue depth (excluding requests the engine
// has already pulled into its pending batch).
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
	pending := make([]*request, 0, e.maxBatch)
	for {
		select {
		case r := <-e.queue:
			pending = append(pending, r)
			e.drainQueue(&pending)
		case <-e.quit:
			// Close: closed was set before quit closed, so no new request
			// can enter the queue and its length is final.
			e.drainQueue(&pending)
			return
		}
	}
}

// drainQueue moves every request already sitting in the queue into the
// pending batch without blocking, flushing each time the batch fills, then
// flushes the remainder: no request waits while the engine is free.
func (e *Engine) drainQueue(pending *[]*request) {
	for {
		if len(*pending) == e.maxBatch {
			e.flush(pending)
		}
		select {
		case r := <-e.queue:
			*pending = append(*pending, r)
		default:
			e.flush(pending)
			return
		}
	}
}

// flush evaluates the pending batch in arrival order and answers each
// request. Per-sample results do not depend on how requests were batched.
func (e *Engine) flush(pending *[]*request) {
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
	for i, r := range batch {
		inputs[i] = r.input
	}
	start := e.now()
	logits, err := e.model.EvalBatch(inputs)
	lat := e.now().Sub(start)
	// Count the batch before answering it, so a caller that reads the
	// stats after its answer arrives always sees its own request.
	if err != nil {
		e.stats.recordError(len(batch))
		for _, r := range batch {
			r.resp <- result{tm: timingFor(r, flushStart, lat, len(batch)), err: err}
		}
		return
	}
	e.stats.recordBatch(len(batch), lat)
	for i, r := range batch {
		r.resp <- result{
			pred: Prediction{
				Class:  argmax(logits[i]),
				Probs:  softmax(logits[i]),
				Logits: logits[i],
			},
			tm: timingFor(r, flushStart, lat, len(batch)),
		}
	}
}

// timingFor derives one request's Timing from its flush: queue wait is
// enqueue-to-flush-start (clamped at zero against clock skew), compute is
// the whole batched forward pass — every rider pays the full pass, which
// is what it actually waited for.
func timingFor(r *request, flushStart time.Time, lat time.Duration, batch int) Timing {
	qw := flushStart.Sub(r.enq)
	if qw < 0 {
		qw = 0
	}
	return Timing{QueueWait: qw, Compute: lat, Batch: batch}
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

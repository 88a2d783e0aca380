package train

import (
	"fmt"
	"time"

	"repro/internal/compute"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// stepMachine is the per-step stage machine the trainer runs each batch
// through:
//
//	shard → forward/backward partials → exchange → global reduce
//
// (the optimizer step stays in Run). The batch's permutation slice is
// split into Shards contiguous balanced shards (dataset.Shard); with one
// shard it is the whole batch. Each shard is forward/backwarded
// independently — batch norm sees shard-local batch statistics, the loss
// is scaled by the global batch size — and its flattened gradient, loss,
// and batch-norm moments become that shard's partial. Under a dist
// session each rank computes only its owned shard range and exchanges
// partials with its peers; single-process runs compute every shard
// locally. The reduce stage is identical everywhere: zero the gradients,
// fold the partials in ascending shard order, sum the shard losses in
// shard order, and replay the batch-norm moment updates in shard order.
// Because every (threads × processes) shape computes the same partials and
// folds them in the same order, the post-step model state is
// byte-identical across shapes — the run's result depends on Shards (a
// semantic knob) but never on how the shards were scheduled.
type stepMachine struct {
	m      *nn.Model
	shards int
	sess   *dist.Session // nil for single-process runs
	token  string
	batch  int // global batch size

	x      *tensor.Tensor
	y      []int
	sample int

	bx *tensor.Tensor // gather buffer, rows = max shard size
	by []int

	bn      []*nn.BatchNorm2D // batch-norm layers in walk order
	bnLen   int               // total moment vector length: sum over layers of 2*C
	parts   *compute.PartialSet
	moments [][]float64 // per-shard moment vectors, layer-major (C means, C variances)
	losses  []float64

	ownLo, ownHi int // owned shard range [lo, hi)

	timed                                   bool
	tForward, tBackward, tExchange, tReduce time.Duration
}

// newStepMachine builds the machine for one run. It flips every batch-norm
// layer into deferred-statistics mode; close undoes that.
func newStepMachine(m *nn.Model, x *tensor.Tensor, y []int, batch, shards int, sess *dist.Session, token string) *stepMachine {
	n := x.Dim(0)
	sm := &stepMachine{
		m: m, shards: shards, sess: sess, token: token, batch: batch,
		x: x, y: y, sample: x.Len() / n,
		ownLo: 0, ownHi: shards,
	}
	rows := (batch + shards - 1) / shards // max shard size of a balanced split
	sm.bx = tensor.New(rows, sm.sample)
	sm.by = make([]int, rows)
	nn.Walk(m.Net, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			bn.DeferStats = true
			sm.bn = append(sm.bn, bn)
			sm.bnLen += 2 * bn.C
		}
	})
	sm.parts = compute.NewPartialSet(shards, m.NumParams())
	sm.moments = make([][]float64, shards)
	for k := range sm.moments {
		sm.moments[k] = make([]float64, sm.bnLen)
	}
	sm.losses = make([]float64, shards)
	if sess != nil {
		sm.ownLo, sm.ownHi = dist.RankShards(shards, sess.Procs(), sess.Rank())
	}
	return sm
}

// close restores the batch-norm layers' inline-statistics mode.
func (sm *stepMachine) close() {
	for _, b := range sm.bn {
		b.DeferStats = false
	}
}

// step runs one batch through the stage machine and returns its data loss.
// idx is the batch's slice of the epoch permutation. The caller applies
// the regularizer, gradient clipping, and the optimizer step afterwards.
func (sm *stepMachine) step(epoch, step int, idx []int) float64 {
	// Stage: shard + forward/backward partials over the owned shard range.
	for k := sm.ownLo; k < sm.ownHi; k++ {
		lo, hi := dataset.Shard(len(idx), k, sm.shards)
		bs := hi - lo
		gather(sm.bx, sm.by, sm.x, sm.y, idx[lo:hi])
		batch := tensor.FromSlice(sm.bx.Data()[:bs*sm.sample], append([]int{bs}, sm.m.InputShape...)...)
		sm.m.ZeroGrad()
		var t0 time.Time
		if sm.timed {
			t0 = time.Now()
		}
		logits := sm.m.ForwardTrain(batch)
		loss, grad := nn.SoftmaxCrossEntropyTotal(logits, sm.by[:bs], len(idx))
		if sm.timed {
			t1 := time.Now()
			sm.tForward += t1.Sub(t0)
			t0 = t1
		}
		sm.m.Backward(grad)
		sm.m.ReadGrads(sm.parts.Partial(k))
		sm.captureMoments(k)
		sm.losses[k] = loss
		if sm.timed {
			sm.tBackward += time.Since(t0)
		}
	}

	// Stage: exchange — send owned partials, receive the rest.
	if sm.sess != nil {
		var t0 time.Time
		if sm.timed {
			t0 = time.Now()
		}
		sm.exchange(epoch, step)
		if sm.timed {
			sm.tExchange += time.Since(t0)
		}
	}

	// Stage: global reduce — a fixed left fold in ascending shard order,
	// identical on every rank and for every execution shape.
	var t0 time.Time
	if sm.timed {
		t0 = time.Now()
	}
	sm.m.ZeroGrad()
	loss := 0.0
	for k := 0; k < sm.shards; k++ {
		sm.m.AddGrads(sm.parts.Partial(k))
		loss += sm.losses[k]
	}
	for k := 0; k < sm.shards; k++ {
		off := 0
		for _, b := range sm.bn {
			b.ApplyBatchStats(sm.moments[k][off:off+b.C], sm.moments[k][off+b.C:off+2*b.C])
			off += 2 * b.C
		}
	}
	if sm.timed {
		sm.tReduce += time.Since(t0)
	}
	return loss
}

// captureMoments snapshots every batch-norm layer's batch moments from the
// shard that just ran forward, layer-major into the shard's moment vector.
func (sm *stepMachine) captureMoments(k int) {
	dst := sm.moments[k]
	off := 0
	for _, b := range sm.bn {
		mu, va := b.BatchStats()
		copy(dst[off:off+b.C], mu)
		copy(dst[off+b.C:off+2*b.C], va)
		off += 2 * b.C
	}
}

// exchange sends the owned shard partials and copies in every other shard's.
func (sm *stepMachine) exchange(epoch, step int) {
	own := make([]*dist.Partial, 0, sm.ownHi-sm.ownLo)
	for k := sm.ownLo; k < sm.ownHi; k++ {
		own = append(own, &dist.Partial{
			Token: sm.token, Epoch: epoch, Step: step, Shard: k,
			Loss: sm.losses[k], Grad: sm.parts.Partial(k), BNMoments: sm.moments[k],
		})
	}
	peers, err := sm.sess.Exchange(own)
	if err != nil {
		panic(fmt.Sprintf("train: %v", err))
	}
	for _, p := range peers {
		copy(sm.parts.Partial(p.Shard), p.Grad)
		copy(sm.moments[p.Shard], p.BNMoments)
		sm.losses[p.Shard] = p.Loss
	}
}

// drainTimings returns and resets the per-phase accumulators (called once
// per epoch by Run).
func (sm *stepMachine) drainTimings() (fwd, bwd, exch, red time.Duration) {
	fwd, bwd, exch, red = sm.tForward, sm.tBackward, sm.tExchange, sm.tReduce
	sm.tForward, sm.tBackward, sm.tExchange, sm.tReduce = 0, 0, 0, 0
	return
}

// Package train provides optimizers and a training loop for the nn
// substrate, with a per-step regularizer hook through which the
// data-encoding attacks inject their correlation penalty gradients.
package train

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update to every parameter and does not clear
	// gradients (call Model.ZeroGrad separately).
	Step(params []*nn.Param)
	// SetLR changes the learning rate.
	SetLR(lr float64)
	// LR returns the current learning rate.
	LR() float64
}

// StatefulOptimizer is implemented by optimizers whose update rule carries
// state across steps (momentum velocities, Adam moments). Checkpointing
// uses it so a resumed run continues the exact update sequence an
// uninterrupted run would have produced — momentum history included.
type StatefulOptimizer interface {
	Optimizer
	// ExportState snapshots the optimizer's per-parameter state, keyed by
	// parameter name so it survives serialization.
	ExportState(params []*nn.Param) OptimizerState
	// ImportState restores a snapshot produced by ExportState onto the
	// given (freshly built) parameters.
	ImportState(params []*nn.Param, st OptimizerState) error
}

// OptimizerState is the serializable state of a StatefulOptimizer.
type OptimizerState struct {
	// Kind names the optimizer ("sgd", "adam"); ImportState rejects a
	// state captured from a different kind.
	Kind string
	// Step is the global step counter (Adam's bias-correction t).
	Step int
	// Slots hold one named state vector set each ("velocity", "m", "v").
	Slots []StateSlot
}

// StateSlot is one named per-parameter state vector set.
type StateSlot struct {
	Name    string
	ByParam []ValuesBlob
}

// slot returns the named slot, or nil.
func (st OptimizerState) slot(name string) *StateSlot {
	for i := range st.Slots {
		if st.Slots[i].Name == name {
			return &st.Slots[i]
		}
	}
	return nil
}

// exportVecs captures a param-keyed tensor map as a named slot, in params
// order for determinism. Params without an entry (never stepped) are
// skipped and restore as absent, exactly as they were.
func exportVecs(name string, params []*nn.Param, vecs map[*nn.Param]*tensor.Tensor) StateSlot {
	slot := StateSlot{Name: name}
	for _, p := range params {
		if v, ok := vecs[p]; ok {
			slot.ByParam = append(slot.ByParam, ValuesBlob{
				Name:   p.Name,
				Values: append([]float64(nil), v.Data()...),
			})
		}
	}
	return slot
}

// importVecs restores a slot into a param-keyed tensor map.
func importVecs(slot *StateSlot, params []*nn.Param, vecs map[*nn.Param]*tensor.Tensor) error {
	if slot == nil {
		return nil
	}
	byName := make(map[string]*nn.Param, len(params))
	for _, p := range params {
		byName[p.Name] = p
	}
	for _, blob := range slot.ByParam {
		p, ok := byName[blob.Name]
		if !ok {
			return fmt.Errorf("train: optimizer state for unknown parameter %q", blob.Name)
		}
		if p.NumEl() != len(blob.Values) {
			return fmt.Errorf("train: optimizer state for %q has %d values, parameter has %d",
				blob.Name, len(blob.Values), p.NumEl())
		}
		v := tensor.New(p.Value.Shape()...)
		copy(v.Data(), blob.Values)
		vecs[p] = v
	}
	return nil
}

// SGD is stochastic gradient descent with optional momentum and decoupled
// weight decay.
type SGD struct {
	lr          float64
	Momentum    float64
	WeightDecay float64
	velocity    map[*nn.Param]*tensor.Tensor
}

// NewSGD creates an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{lr: lr, Momentum: momentum, WeightDecay: weightDecay,
		velocity: make(map[*nn.Param]*tensor.Tensor)}
}

// Step implements Optimizer.
func (s *SGD) Step(params []*nn.Param) {
	for _, p := range params {
		g := p.Grad
		if s.WeightDecay != 0 && p.Weight {
			g = g.Clone().AddScaled(s.WeightDecay, p.Value)
		}
		if s.Momentum != 0 {
			v, ok := s.velocity[p]
			if !ok {
				v = tensor.New(p.Value.Shape()...)
				s.velocity[p] = v
			}
			v.Scale(s.Momentum).Add(g)
			p.Value.AddScaled(-s.lr, v)
		} else {
			p.Value.AddScaled(-s.lr, g)
		}
	}
}

// SetLR implements Optimizer.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// LR implements Optimizer.
func (s *SGD) LR() float64 { return s.lr }

// ExportState implements StatefulOptimizer (momentum velocities).
func (s *SGD) ExportState(params []*nn.Param) OptimizerState {
	return OptimizerState{Kind: "sgd", Slots: []StateSlot{exportVecs("velocity", params, s.velocity)}}
}

// ImportState implements StatefulOptimizer.
func (s *SGD) ImportState(params []*nn.Param, st OptimizerState) error {
	if st.Kind != "sgd" {
		return fmt.Errorf("train: cannot restore %q state into SGD", st.Kind)
	}
	s.velocity = make(map[*nn.Param]*tensor.Tensor)
	return importVecs(st.slot("velocity"), params, s.velocity)
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	lr           float64
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float64
	t            int
	m, v         map[*nn.Param]*tensor.Tensor
}

// NewAdam creates an Adam optimizer with standard defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{
		lr: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*nn.Param]*tensor.Tensor),
		v: make(map[*nn.Param]*tensor.Tensor),
	}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*nn.Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		g := p.Grad
		if a.WeightDecay != 0 && p.Weight {
			g = g.Clone().AddScaled(a.WeightDecay, p.Value)
		}
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.Value.Shape()...)
			a.m[p] = m
			a.v[p] = tensor.New(p.Value.Shape()...)
		}
		v := a.v[p]
		md, vd, gd, pd := m.Data(), v.Data(), g.Data(), p.Value.Data()
		for i := range gd {
			md[i] = a.Beta1*md[i] + (1-a.Beta1)*gd[i]
			vd[i] = a.Beta2*vd[i] + (1-a.Beta2)*gd[i]*gd[i]
			mhat := md[i] / bc1
			vhat := vd[i] / bc2
			pd[i] -= a.lr * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}

// SetLR implements Optimizer.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// LR implements Optimizer.
func (a *Adam) LR() float64 { return a.lr }

// ExportState implements StatefulOptimizer (first/second moments + step).
func (a *Adam) ExportState(params []*nn.Param) OptimizerState {
	return OptimizerState{Kind: "adam", Step: a.t, Slots: []StateSlot{
		exportVecs("m", params, a.m),
		exportVecs("v", params, a.v),
	}}
}

// ImportState implements StatefulOptimizer.
func (a *Adam) ImportState(params []*nn.Param, st OptimizerState) error {
	if st.Kind != "adam" {
		return fmt.Errorf("train: cannot restore %q state into Adam", st.Kind)
	}
	a.t = st.Step
	a.m = make(map[*nn.Param]*tensor.Tensor)
	a.v = make(map[*nn.Param]*tensor.Tensor)
	if err := importVecs(st.slot("m"), params, a.m); err != nil {
		return err
	}
	return importVecs(st.slot("v"), params, a.v)
}

// StepDecay returns a schedule that multiplies the base LR by factor every
// `every` epochs.
func StepDecay(base float64, every int, factor float64) func(epoch int) float64 {
	return func(epoch int) float64 {
		if every <= 0 {
			return base
		}
		return base * math.Pow(factor, float64(epoch/every))
	}
}

// Package core is the public face of the library: the paper's execution
// strategy for irregular reductions behind a small API.
//
// A Reduction describes an irregular reduction loop (Figure 1 of the
// paper): NumIters iterations, each updating reduction elements through one
// or more indirection arrays. A Strategy names the machine shape — P
// processors, unrolling factor k, and the iteration distribution (the
// paper's 1c/2c/4c/2b variants). The library then offers:
//
//   - Schedules: run the LightInspector and obtain the per-processor phase
//     programs (no interprocessor communication needed);
//   - RunNative: execute the reduction on real goroutines with rotating
//     portion ownership;
//   - Simulate: execute on the modelled EARTH/MANNA multithreaded machine
//     and obtain cycle-accurate-style timings, as the paper's evaluation
//     did;
//   - CompileIRL: compile an IRL source program (sections, reference
//     groups, loop fission) into runnable plans.
package core

import (
	"context"
	"fmt"

	"irred/internal/codegen"
	"irred/internal/inspector"
	"irred/internal/machine"
	"irred/internal/rts"
	"irred/internal/sim"
)

// Dist is an iteration distribution.
type Dist = inspector.Dist

// Distribution values.
const (
	Block  = inspector.Block
	Cyclic = inspector.Cyclic
)

// Strategy is a parallel execution configuration. The paper's named
// variants are 1c = {K:1, Cyclic}, 2c = {K:2, Cyclic}, 4c = {K:4, Cyclic},
// 2b = {K:2, Block}.
type Strategy struct {
	P    int
	K    int
	Dist Dist
}

// Strategy1C returns the paper's "1c" strategy for p processors.
func Strategy1C(p int) Strategy { return Strategy{P: p, K: 1, Dist: Cyclic} }

// Strategy2C returns the paper's "2c" strategy (its overall best).
func Strategy2C(p int) Strategy { return Strategy{P: p, K: 2, Dist: Cyclic} }

// Strategy4C returns the paper's "4c" strategy.
func Strategy4C(p int) Strategy { return Strategy{P: p, K: 4, Dist: Cyclic} }

// Strategy2B returns the paper's "2b" strategy (k=2, block distribution).
func Strategy2B(p int) Strategy { return Strategy{P: p, K: 2, Dist: Block} }

// String renders the paper's shorthand.
func (s Strategy) String() string {
	d := "c"
	if s.Dist == Block {
		d = "b"
	}
	return fmt.Sprintf("%d%s@%d", s.K, d, s.P)
}

// Reduction describes one irregular reduction loop.
type Reduction struct {
	NumIters int
	NumElems int
	Ind      [][]int32
	// Comp is the number of values per reduction element (3 for a force
	// vector); defaults to 1.
	Comp int
	// Cost describes per-iteration work to the simulator; optional — a
	// generic default is used when zero.
	Cost rts.KernelCost
}

// NewReduction builds a reduction description over the given indirection
// arrays (each of length numIters with values in [0, numElems)).
func NewReduction(numIters, numElems int, ind ...[]int32) *Reduction {
	return &Reduction{NumIters: numIters, NumElems: numElems, Ind: ind}
}

// loop lowers to the runtime representation.
func (r *Reduction) loop(s Strategy) *rts.Loop {
	cost := r.Cost
	if cost.Flops == 0 && cost.IntOps == 0 {
		cost = rts.KernelCost{Flops: 10, IntOps: 4, IterArrays: 1}
	}
	if r.Comp > 1 {
		cost.Comp = r.Comp
	}
	return &rts.Loop{
		Cfg: inspector.Config{
			P: s.P, K: s.K,
			NumIters: r.NumIters,
			NumElems: r.NumElems,
			Dist:     s.Dist,
		},
		Mode: rts.Reduce,
		Ind:  r.Ind,
		Cost: cost,
	}
}

// Schedules runs the LightInspector for every processor of the strategy.
func (r *Reduction) Schedules(s Strategy) ([]*inspector.Schedule, error) {
	return r.loop(s).Schedules()
}

// Contribs computes the per-iteration contribution of iteration i for each
// indirection reference: out has len(Ind)*Comp slots, reference-major.
// p identifies the executing processor for per-processor scratch state.
type Contribs = rts.ContribFunc

// ContribBlock is Contribs in the block form the native engine drives: the
// contributions of up to 256 consecutive scheduled iterations at once, out
// iteration-major with len(Ind)*Comp slots per iteration, every slot
// written, out not retained. A kernel that can fill a block without a call
// per iteration runs measurably faster in this form.
type ContribBlock = rts.ContribBlockFunc

// RunNative executes the reduction for steps sweeps on real goroutines and
// returns the reduction array (len NumElems*Comp). update, when non-nil,
// runs per processor between sweeps under a barrier.
func (r *Reduction) RunNative(s Strategy, contribs Contribs, update rts.UpdateFunc, steps int) ([]float64, error) {
	return r.RunNativeContext(context.Background(), s, contribs, update, steps)
}

// RunNativeContext is RunNative with cancellation: when ctx is cancelled or
// its deadline expires, every worker goroutine stops at its next phase
// boundary and the call returns ctx.Err().
func (r *Reduction) RunNativeContext(ctx context.Context, s Strategy, contribs Contribs, update rts.UpdateFunc, steps int) ([]float64, error) {
	return r.runNative(ctx, s, steps, func(n *rts.Native) { n.Contribs, n.Update = contribs, update })
}

// RunNativeBlock is RunNativeContext over a block contribution function.
func (r *Reduction) RunNativeBlock(ctx context.Context, s Strategy, block ContribBlock, update rts.UpdateFunc, steps int) ([]float64, error) {
	return r.runNative(ctx, s, steps, func(n *rts.Native) { n.ContribBlock, n.Update = block, update })
}

// runNative builds the engine for strategy s, lets wire install the
// callbacks and runs it.
func (r *Reduction) runNative(ctx context.Context, s Strategy, steps int, wire func(*rts.Native)) ([]float64, error) {
	n, err := rts.NewNative(r.loop(s))
	if err != nil {
		return nil, err
	}
	wire(n)
	if err := n.RunContext(ctx, steps); err != nil {
		return nil, err
	}
	return n.X, nil
}

// Report summarizes a simulated execution.
type Report struct {
	Strategy Strategy
	Steps    int

	Cycles  sim.Time
	Seconds float64

	SeqCycles  sim.Time
	SeqSeconds float64
	Speedup    float64

	InspectorCycles sim.Time
	MsgsPerStep     float64
	BytesPerStep    float64
	MaxPhaseIters   int
	AvgPhaseIters   float64
}

// Simulate runs the reduction for steps timesteps on the modelled EARTH
// machine and reports timing against the sequential baseline.
func (r *Reduction) Simulate(s Strategy, steps int) (*Report, error) {
	l := r.loop(s)
	opt := rts.SimOptions{Steps: steps}
	res, err := rts.RunSim(l, opt)
	if err != nil {
		return nil, err
	}
	seqC, seqS := rts.RunSequentialSim(l, opt)
	return &Report{
		Strategy:        s,
		Steps:           steps,
		Cycles:          res.Cycles,
		Seconds:         res.Seconds,
		SeqCycles:       seqC,
		SeqSeconds:      seqS,
		Speedup:         float64(seqC) / float64(res.Cycles),
		InspectorCycles: res.InspectorCycles,
		MsgsPerStep:     res.MsgsPerStep,
		BytesPerStep:    res.BytesPerStep,
		MaxPhaseIters:   res.MaxPhaseIters,
		AvgPhaseIters:   res.AvgPhaseIters,
	}, nil
}

// Machine returns the default modelled machine parameters (MANNA, 50 MHz
// i860XP nodes), for callers that want to inspect or derive costs.
func Machine() (machine.CostModel, machine.Network) {
	return machine.MANNA(), machine.MANNANet()
}

// CompileIRL compiles an IRL source program through the full Section 4
// pipeline: parsing, section analysis, reference grouping, loop fission,
// and plan generation.
func CompileIRL(src string) (*codegen.Unit, error) {
	return codegen.Compile(src)
}

// UpdateSchedules incrementally revises previously built schedules after
// the reduction's indirection arrays changed for the given iterations (the
// adaptive-problem path; see inspector.Schedule.Update). The reduction's
// Ind slices must already hold the new values.
func (r *Reduction) UpdateSchedules(scheds []*inspector.Schedule, changed []int32) error {
	for _, s := range scheds {
		if err := s.Update(changed, r.Ind...); err != nil {
			return err
		}
	}
	return nil
}

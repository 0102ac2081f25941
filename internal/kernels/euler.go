// Package kernels implements the paper's three benchmark kernels — mvm,
// euler and moldyn — each as a sequential reference implementation, a
// native parallel execution wired onto the rts engines, and a cost
// description for the EARTH simulator.
package kernels

import (
	"math/rand"

	"irred/internal/inspector"
	"irred/internal/mesh"
	"irred/internal/rts"
)

// Euler is the CFD-flavoured unstructured-mesh kernel (derived from the
// paper's reference [5]): a sweep over mesh edges computes a flux from the
// states of the two endpoint nodes and accumulates it into both nodes'
// residuals — an irregular reduction with two indirection references and a
// three-component reduction array. A regular per-node loop then advances
// the state from the residual.
type Euler struct {
	Mesh *mesh.Mesh
	W    []float64 // per-edge weight (face area / metric term)
	Q    []float64 // node state, 3 components interleaved (replicated read)
	Dt   float64
}

// eulerCost declares the per-iteration work to the simulator: the flux
// evaluation (~30 flops), two endpoint state reads (3 components each), the
// edge weight, a 3-component reduction, a per-node update, and a per-step
// refresh of the replicated state.
var eulerCost = rts.KernelCost{
	Flops:               30,
	IntOps:              6,
	IterArrays:          1,
	NodeArrays:          3,
	Comp:                3,
	UpdateFlopsPerElem:  6,
	UpdateArraysPerElem: 6,
	BcastComp:           3,
}

// NewEuler builds the kernel over a mesh with deterministic initial state.
func NewEuler(m *mesh.Mesh, seed int64) *Euler {
	rng := rand.New(rand.NewSource(seed))
	e := &Euler{
		Mesh: m,
		W:    make([]float64, m.NumEdges()),
		Q:    make([]float64, 3*m.NumNodes),
		Dt:   1e-3,
	}
	for i := range e.W {
		e.W[i] = 0.5 + rng.Float64()
	}
	for i := range e.Q {
		e.Q[i] = rng.Float64()
	}
	return e
}

// newNative builds a Native for l, reusing scheds when provided.
func newNative(l *rts.Loop, scheds []*inspector.Schedule) (*rts.Native, error) {
	if scheds == nil {
		return rts.NewNative(l)
	}
	return rts.NewNativeFrom(l, scheds)
}

// flux computes the edge flux components into out[0:3] given endpoint
// states qa, qb (3 values each) and the edge weight w. It is the shared
// physics of the sequential and parallel paths.
func flux(w float64, qa, qb, out []float64) {
	// A Rusanov-like flux: central difference plus a quadratic term and a
	// dissipation proportional to the state jump.
	for c := 0; c < 3; c++ {
		avg := 0.5 * (qa[c] + qb[c])
		jump := qa[c] - qb[c]
		out[c] = w * (avg*avg*0.25 + jump*0.75 + avg*0.5)
	}
}

// Loop describes the flux sweep to the runtime.
func (e *Euler) Loop(p, k int, dist inspector.Dist) *rts.Loop {
	return &rts.Loop{
		Cfg: inspector.Config{
			P: p, K: k,
			NumIters: e.Mesh.NumEdges(),
			NumElems: e.Mesh.NumNodes,
			Dist:     dist,
		},
		Mode: rts.Reduce,
		Ind:  [][]int32{e.Mesh.I1, e.Mesh.I2},
		Cost: eulerCost,
	}
}

// SequentialStep runs one reference timestep: flux sweep into res, then the
// node update. res must hold 3*NumNodes zeros on entry and is left zeroed.
func (e *Euler) SequentialStep(q, res []float64) {
	var f [3]float64
	for i := range e.Mesh.I1 {
		a, b := int(e.Mesh.I1[i]), int(e.Mesh.I2[i])
		flux(e.W[i], q[3*a:3*a+3], q[3*b:3*b+3], f[:])
		for c := 0; c < 3; c++ {
			res[3*a+c] += f[c]
			res[3*b+c] -= f[c]
		}
	}
	for j := range q {
		q[j] += e.Dt * res[j]
		res[j] = 0
	}
}

// RunSequential advances a copy of the initial state for steps timesteps
// and returns it.
func (e *Euler) RunSequential(steps int) []float64 {
	q := append([]float64(nil), e.Q...)
	res := make([]float64, len(q))
	for s := 0; s < steps; s++ {
		e.SequentialStep(q, res)
	}
	return q
}

// Oracle is RunSequential: the state after steps timesteps.
func (e *Euler) Oracle(steps int) []float64 { return e.RunSequential(steps) }

// NewNative wires the kernel onto the native engine. The returned Native's
// X is the residual array; the evolving state lives in the returned slice,
// updated under the engine's barrier.
func (e *Euler) NewNative(p, k int, dist inspector.Dist) (*rts.Native, []float64, error) {
	return e.NewNativeFrom(nil, p, k, dist)
}

// NewNativeFrom is NewNative over pre-built schedules (e.g. served from a
// schedule cache); a nil scheds runs the LightInspector as NewNative does.
func (e *Euler) NewNativeFrom(scheds []*inspector.Schedule, p, k int, dist inspector.Dist) (*rts.Native, []float64, error) {
	l := e.Loop(p, k, dist)
	n, err := newNative(l, scheds)
	if err != nil {
		return nil, nil, err
	}
	q := append([]float64(nil), e.Q...)
	n.Contribs = func(_, i int, out []float64) {
		a, b := int(e.Mesh.I1[i]), int(e.Mesh.I2[i])
		var f [3]float64
		flux(e.W[i], q[3*a:3*a+3], q[3*b:3*b+3], f[:])
		for c := 0; c < 3; c++ {
			out[c] = f[c]    // reference 0: += f
			out[3+c] = -f[c] // reference 1: -= f
		}
	}
	// The block form the engine drives: the flux goes straight into the
	// block, no closure call or copy per edge.
	n.ContribBlock = func(_ int, iters []int32, out []float64) {
		i1, i2, w := e.Mesh.I1, e.Mesh.I2, e.W
		for j, it := range iters {
			a, b := 3*int(i1[it]), 3*int(i2[it])
			o := out[6*j : 6*j+6 : 6*j+6]
			flux(w[it], q[a:a+3], q[b:b+3], o[:3])
			o[3], o[4], o[5] = -o[0], -o[1], -o[2]
		}
	}
	n.Update = func(proc, step int) {
		lo, _ := l.Cfg.PortionBounds(l.Cfg.PortionAt(proc, 0))
		_, hi := l.Cfg.PortionBounds(l.Cfg.PortionAt(proc, l.Cfg.K-1))
		for eIdx := lo; eIdx < hi; eIdx++ {
			for c := 0; c < 3; c++ {
				q[3*eIdx+c] += e.Dt * n.X[3*eIdx+c]
				n.X[3*eIdx+c] = 0
			}
		}
	}
	return n, q, nil
}

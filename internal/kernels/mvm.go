package kernels

import (
	"irred/internal/dataflow"
	"irred/internal/inspector"
	"irred/internal/rts"
	"irred/internal/sparse"
)

// MVM is the sparse matrix-vector kernel extracted from the NAS Conjugate
// Gradient benchmark (paper Section 5.3). Iterating y = A*x rotates the x
// vector: each nonzero consumes x at its column index, so iterations are
// partitioned into phases by column portion. The reduction output y is
// indexed by row — not through an indirection — so no LightInspector
// buffering is needed, exactly as the paper notes. Between sweeps a vector
// update feeds y back into x (a CG-like iteration).
type MVM struct {
	A    *sparse.CSR
	Rows []int32 // row of each stored nonzero (iteration-aligned)
}

// mvmCost: multiply-add per nonzero, the value and row-index streams, the
// gathered x read, the y accumulation, and the vector update. No replicated
// data is refreshed: x itself rotates.
var mvmCost = rts.KernelCost{
	Flops:               2,
	IntOps:              3,
	IterArrays:          2,
	NodeArrays:          0,
	Comp:                1,
	UpdateFlopsPerElem:  2,
	UpdateArraysPerElem: 2,
	BcastComp:           0,
}

// NewMVM wraps a CSR matrix.
func NewMVM(a *sparse.CSR) *MVM {
	return &MVM{A: a, Rows: a.RowOfNZ()}
}

// Loop describes the gather sweep to the runtime. The loop carries a
// scanned bounds proof over the column indices when they are all in
// range, so the native engine runs without per-read target validation.
func (m *MVM) Loop(p, k int, dist inspector.Dist) *rts.Loop {
	return &rts.Loop{
		Proof: dataflow.IndirectionFacts("mvm gather sweep", m.A.N, m.A.Col),
		Cfg: inspector.Config{
			P: p, K: k,
			NumIters: m.A.NNZ(),
			NumElems: m.A.N,
			Dist:     dist,
		},
		Mode:      rts.Gather,
		Ind:       [][]int32{m.A.Col},
		Cost:      mvmCost,
		GatherOut: m.Rows,
	}
}

// scale is the between-sweep vector op: x = y / norm-ish constant, keeping
// magnitudes bounded over many sweeps.
const mvmScale = 0.25

// SequentialStep computes y = A*x then x = scale*y.
func (m *MVM) SequentialStep(x, y []float64) {
	m.A.MulVec(x, y)
	for i := range x {
		x[i] = mvmScale * y[i]
	}
}

// RunSequential iterates the kernel from the all-ones vector.
func (m *MVM) RunSequential(steps int) (x []float64) {
	x = make([]float64, m.A.N)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, m.A.N)
	for s := 0; s < steps; s++ {
		m.SequentialStep(x, y)
	}
	return x
}

// NewNative wires the kernel onto the native engine. Native.X is the
// rotated x vector (initialised to ones); each processor accumulates into
// a private partial-y, and the update folds partials into the home rows
// before the vector op. It sets both gather hooks: ConsumeBlock, the tight
// loop the engine runs, and Consume, the same arithmetic per iteration.
func (m *MVM) NewNative(p, k int, dist inspector.Dist) (*rts.Native, error) {
	return m.NewNativeFrom(nil, p, k, dist)
}

// NewNativeFrom is NewNative over pre-built schedules (e.g. served from a
// schedule cache); a nil scheds runs the LightInspector as NewNative does.
func (m *MVM) NewNativeFrom(scheds []*inspector.Schedule, p, k int, dist inspector.Dist) (*rts.Native, error) {
	l := m.Loop(p, k, dist)
	n, err := newNative(l, scheds)
	if err != nil {
		return nil, err
	}
	for i := range n.X {
		n.X[i] = 1
	}
	partial := make([][]float64, p)
	for q := range partial {
		partial[q] = make([]float64, m.A.N)
	}
	n.Consume = func(proc, i int, vals []float64) {
		partial[proc][m.Rows[i]] += m.A.Val[i] * vals[0]
	}
	rows, val := m.Rows, m.A.Val
	n.ConsumeBlock = func(proc int, iters, cols []int32) {
		y, x := partial[proc], n.X
		for j, i := range iters {
			y[rows[i]] += val[i] * x[cols[j]]
		}
	}
	n.Update = func(proc, step int) {
		lo, _ := l.Cfg.PortionBounds(l.Cfg.PortionAt(proc, 0))
		_, hi := l.Cfg.PortionBounds(l.Cfg.PortionAt(proc, l.Cfg.K-1))
		for r := lo; r < hi; r++ {
			var y float64
			for q := range partial {
				y += partial[q][r]
				partial[q][r] = 0
			}
			n.X[r] = mvmScale * y
		}
	}
	return n, nil
}

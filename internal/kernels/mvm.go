package kernels

import (
	"sort"

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

// Loop describes the gather sweep to the runtime.
func (m *MVM) Loop(p, k int, dist inspector.Dist) *rts.Loop {
	return &rts.Loop{
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

// Oracle is RunSequential: x after steps sweeps.
func (m *MVM) Oracle(steps int) []float64 { return m.RunSequential(steps) }

// NewNative wires the kernel onto the native engine. Native.X is the
// rotated x vector (initialised to ones); each processor accumulates into
// a private partial-y, and the update folds partials into the home rows
// before the vector op. It sets both gather hooks: ConsumeBlock, the tight
// loop the engine runs, and Consume, the same arithmetic per iteration.
// From each processor's second sweep on, the block loop copies the
// processor's nonzeros into schedule order (mvmPacked) and then streams
// that copy, so a one-sweep Native pays nothing for it. A Scheds entry or
// A.Val replaced between Runs drops the copy; neither a schedule (see
// rts.Native.Scheds) nor A's values may be edited in place between a
// Native's Runs.
func (m *MVM) NewNative(p, k int, dist inspector.Dist) (*rts.Native, error) {
	n, _, err := m.NewNativeFrom(nil, p, k, dist)
	return n, err
}

// NewNativeFrom is NewNative over pre-built schedules (e.g. served from a
// schedule cache); a nil scheds runs the LightInspector as NewNative does.
// The returned slice is the Native's X.
func (m *MVM) NewNativeFrom(scheds []*inspector.Schedule, p, k int, dist inspector.Dist) (*rts.Native, []float64, error) {
	l := m.Loop(p, k, dist)
	n, err := newNative(l, scheds)
	if err != nil {
		return nil, nil, err
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
	packed := make([]mvmPacked, p)
	n.ConsumeBlock = func(proc, pos int, iters, cols []int32) {
		y, x, pk := partial[proc], n.X, &packed[proc]
		rows, val := m.Rows, m.A.Val
		pk.keep(n.Scheds[proc], val)
		end := pos + len(cols)
		if end <= pk.filled {
			pk.consume(y, x, pos, cols)
			return
		}
		if pk.sweeps == 0 { // the processor's first sweep
			for j, i := range iters {
				y[rows[i]] += val[i] * x[cols[j]]
			}
			return
		}
		if pk.val == nil {
			pk.val = make([]float64, n.Scheds[proc].NumIters())
		}
		dst := pk.val[pos:end]
		for j, i := range iters {
			r, v := rows[i], val[i]
			y[r] += v * x[cols[j]]
			dst[j] = v
			if len(pk.runs) == 0 || pk.runs[len(pk.runs)-1].row != r {
				pk.runs = append(pk.runs, mvmRun{row: r, start: int32(pos + j)})
			}
		}
		pk.filled = end
	}
	n.Update = func(proc, step int) {
		packed[proc].sweeps++
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
	return n, n.X, nil
}

// mvmPacked is one processor's nonzeros copied into schedule order
// (rts.ConsumeBlockFunc's pos): val[j] is the value of the j-th scheduled
// nonzero, for j < filled. A phase lists its iterations in increasing
// order, so each row's nonzeros there are consecutive, and rows are kept
// as runs: run s covers positions [runs[s].start, runs[s+1].start) —
// through filled for the last — all of row runs[s].row. A sweep over the
// copy reads the matrix once, as one stream per processor, where the
// matrix's own layout has every cache line of Val and Rows fetched once
// per phase and processor with a nonzero on it.
//
// The copy pays for itself only over later sweeps, so packing waits for
// the processor's first finished sweep (sweeps, counted by the Update
// hook). The engine hands over each phase whole, in schedule order, so a
// block that ends past filled starts at filled and extends the copy.
type mvmPacked struct {
	sched  *inspector.Schedule // the schedule the copy follows
	src    *float64            // &A.Val[0] when the copy was made
	sweeps int
	val    []float64
	runs   []mvmRun
	filled int
}

type mvmRun struct{ row, start int32 }

// keep drops the copy when the processor's schedule or the matrix's value
// array is not the one it was made from.
func (pk *mvmPacked) keep(s *inspector.Schedule, val []float64) {
	var src *float64
	if len(val) > 0 {
		src = &val[0]
	}
	if pk.sched != s || pk.src != src {
		pk.sched, pk.src = s, src
		pk.val, pk.runs, pk.filled = nil, pk.runs[:0], 0
	}
}

// consume is the block loop over packed positions [pos, pos+len(cols)).
func (pk *mvmPacked) consume(y, x []float64, pos int, cols []int32) {
	runs := pk.runs
	// The run holding pos: the last one starting at or before it.
	s := sort.Search(len(runs), func(s int) bool { return int(runs[s].start) > pos }) - 1
	for j, end := pos, pos+len(cols); j < end; s++ {
		e := end
		if s+1 < len(runs) {
			e = min(e, int(runs[s+1].start))
		}
		// Accumulating in a register adds in the order, and so to the
		// bits, of one y[row] += per nonzero.
		r := runs[s].row
		acc := y[r]
		c := cols[j-pos : e-pos]
		for t, v := range pk.val[j:e] {
			acc += v * x[c[t]]
		}
		y[r] = acc
		j = e
	}
}

package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"irred/internal/inspector"
	"irred/internal/interp"
	"irred/internal/kernels"
	"irred/internal/lang"
	"irred/internal/rts"
)

// mvmCase is one randomly drawn sparse-MVM reduction instance:
// y[row[i]] += a[i] * x[col[i]] over nnz nonzeros and n elements.
type mvmCase struct {
	nnz, n   int
	row, col []int32
	a, x     []float64
}

// randMVM draws a case. Integral values (small ints for a and x) keep every
// product and every partial sum exactly representable in float64, so all
// accumulation orders — sequential, portion-rotated, DES-scheduled — must
// agree BITWISE, not just within a tolerance. That turns the comparison
// into an exact oracle.
func randMVM(rng *rand.Rand, integral bool) mvmCase {
	c := mvmCase{
		nnz: 200 + rng.Intn(1000),
		n:   40 + rng.Intn(260),
	}
	c.row = make([]int32, c.nnz)
	c.col = make([]int32, c.nnz)
	c.a = make([]float64, c.nnz)
	c.x = make([]float64, c.n)
	for i := 0; i < c.nnz; i++ {
		c.row[i] = int32(rng.Intn(c.n))
		c.col[i] = int32(rng.Intn(c.n))
		if integral {
			c.a[i] = float64(1 + rng.Intn(8))
		} else {
			c.a[i] = rng.NormFloat64()
		}
	}
	for e := 0; e < c.n; e++ {
		if integral {
			c.x[e] = float64(1 + rng.Intn(8))
		} else {
			c.x[e] = rng.NormFloat64()
		}
	}
	return c
}

// sequential is the reference: the loop as written, steps times.
func (c mvmCase) sequential(steps int) []float64 {
	y := make([]float64, c.n)
	for s := 0; s < steps; s++ {
		for i := 0; i < c.nnz; i++ {
			y[c.row[i]] += c.a[i] * c.x[c.col[i]]
		}
	}
	return y
}

// loop builds the rts loop for a strategy.
func (c mvmCase) loop(p, k int, dist inspector.Dist) *rts.Loop {
	return &rts.Loop{
		Cfg:  inspector.Config{P: p, K: k, NumIters: c.nnz, NumElems: c.n, Dist: dist},
		Mode: rts.Reduce,
		Ind:  [][]int32{c.row},
		Cost: rts.KernelCost{Flops: 2, IterArrays: 3, NodeArrays: 1},
	}
}

// native runs the goroutine engine.
func (c mvmCase) native(p, k int, dist inspector.Dist, steps int) ([]float64, error) {
	n, err := rts.NewNative(c.loop(p, k, dist))
	if err != nil {
		return nil, err
	}
	n.Contribs = func(_, i int, out []float64) { out[0] = c.a[i] * c.x[c.col[i]] }
	if err := n.Run(steps); err != nil {
		return nil, err
	}
	return n.X, nil
}

// sim runs the DES engine with attached computation.
func (c mvmCase) sim(p, k int, dist inspector.Dist, steps int) ([]float64, error) {
	ex := &rts.SimExec{
		Contribs: func(_, i int, out []float64) { out[0] = c.a[i] * c.x[c.col[i]] },
	}
	opt := rts.SimOptions{Steps: steps, WarmSteps: 1, MeasureSteps: steps - 1, Exec: ex}
	if _, err := rts.RunSim(c.loop(p, k, dist), opt); err != nil {
		return nil, err
	}
	return ex.X, nil
}

// interpRun pushes the case through the IRL interpreter using the shared
// MVM kernel source — same program text the compiler pipeline consumes.
func (c mvmCase) interpRun(steps int) ([]float64, error) {
	prog, err := lang.Parse(kernels.MVMIRL)
	if err != nil {
		return nil, err
	}
	env := interp.NewEnv(prog)
	env.SetParam("nnz", c.nnz)
	env.SetParam("n", c.n)
	if err := env.BindInt("row", c.row); err != nil {
		return nil, err
	}
	if err := env.BindInt("col", c.col); err != nil {
		return nil, err
	}
	if err := env.BindFloat("a", c.a); err != nil {
		return nil, err
	}
	if err := env.BindFloat("x", c.x); err != nil {
		return nil, err
	}
	if err := env.Alloc(); err != nil {
		return nil, err
	}
	for s := 0; s < steps; s++ {
		if err := env.RunLoop(prog.Loops[0]); err != nil {
			return nil, err
		}
	}
	return env.Floats["y"], nil
}

// compare checks elementwise equality. exact=true demands bitwise equality
// (integral inputs); otherwise a relative tolerance absorbs the reordering
// of float accumulation.
func compare(t *testing.T, label string, got, want []float64, exact bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for e := range want {
		if exact {
			if got[e] != want[e] {
				t.Fatalf("%s: element %d = %v, want %v (exact)", label, e, got[e], want[e])
			}
			continue
		}
		diff := math.Abs(got[e] - want[e])
		scale := math.Max(1, math.Abs(want[e]))
		if diff > 1e-9*scale {
			t.Fatalf("%s: element %d = %v, want %v (diff %g)", label, e, got[e], want[e], diff)
		}
	}
}

// strategies is the (P, k, dist) grid every drawn case is run under.
var strategies = []struct {
	p, k int
	dist inspector.Dist
}{
	{1, 1, inspector.Block},
	{2, 2, inspector.Block},
	{3, 1, inspector.Cyclic},
	{4, 2, inspector.Cyclic},
	{5, 3, inspector.Block},
}

// TestEnginesAgreeExact is the differential property test: random integral
// cases through native, sim, and interp must reproduce the sequential
// reference bitwise, for every strategy.
func TestEnginesAgreeExact(t *testing.T) {
	const cases, steps = 6, 3
	for ci := 0; ci < cases; ci++ {
		rng := rand.New(rand.NewSource(int64(100 + ci)))
		c := randMVM(rng, true)
		want := c.sequential(steps)

		// The interpreter has no strategy axis: one run per case.
		got, err := c.interpRun(steps)
		if err != nil {
			t.Fatal(err)
		}
		compare(t, fmt.Sprintf("case %d interp", ci), got, want, true)

		for _, s := range strategies {
			label := fmt.Sprintf("case %d P=%d k=%d %v", ci, s.p, s.k, s.dist)
			got, err := c.native(s.p, s.k, s.dist, steps)
			if err != nil {
				t.Fatalf("%s native: %v", label, err)
			}
			compare(t, label+" native", got, want, true)

			got, err = c.sim(s.p, s.k, s.dist, steps)
			if err != nil {
				t.Fatalf("%s sim: %v", label, err)
			}
			compare(t, label+" sim", got, want, true)
		}
	}
}

// TestEnginesAgreeFloat repeats the property with full-precision gaussian
// inputs and a tolerance: catches value-routing bugs that integral inputs
// could mask (e.g. a contribution applied twice with weight 0.5).
func TestEnginesAgreeFloat(t *testing.T) {
	const cases, steps = 4, 2
	for ci := 0; ci < cases; ci++ {
		rng := rand.New(rand.NewSource(int64(900 + ci)))
		c := randMVM(rng, false)
		want := c.sequential(steps)

		got, err := c.interpRun(steps)
		if err != nil {
			t.Fatal(err)
		}
		compare(t, fmt.Sprintf("case %d interp", ci), got, want, false)

		for _, s := range strategies {
			label := fmt.Sprintf("case %d P=%d k=%d %v", ci, s.p, s.k, s.dist)
			got, err := c.native(s.p, s.k, s.dist, steps)
			if err != nil {
				t.Fatalf("%s native: %v", label, err)
			}
			compare(t, label+" native", got, want, false)

			got, err = c.sim(s.p, s.k, s.dist, steps)
			if err != nil {
				t.Fatalf("%s sim: %v", label, err)
			}
			compare(t, label+" sim", got, want, false)
		}
	}
}

// TestEnginesAgreeTwoRef runs an euler-shaped two-reference reduction
// (f added at one endpoint, subtracted at the other) through native and
// sim with an Update hook between sweeps — the barrier path — and checks
// both against a sequential replay.
func TestEnginesAgreeTwoRef(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const edges, nodes, steps = 1500, 220, 3
	i1 := make([]int32, edges)
	i2 := make([]int32, edges)
	w := make([]float64, edges)
	for i := range i1 {
		i1[i] = int32(rng.Intn(nodes))
		i2[i] = int32(rng.Intn(nodes))
		w[i] = float64(1 + rng.Intn(4))
	}
	contribs := func(_, i int, out []float64) { out[0], out[1] = w[i], -w[i] }
	update := func(x []float64, cfg inspector.Config, proc int) {
		lo, _ := cfg.PortionBounds(cfg.PortionAt(proc, 0))
		_, hi := cfg.PortionBounds(cfg.PortionAt(proc, cfg.K-1))
		for e := lo; e < hi; e++ {
			x[e] *= 0.5
		}
	}

	want := make([]float64, nodes)
	for s := 0; s < steps; s++ {
		for i := 0; i < edges; i++ {
			want[i1[i]] += w[i]
			want[i2[i]] -= w[i]
		}
		for e := range want {
			want[e] *= 0.5
		}
	}

	for _, s := range strategies {
		label := fmt.Sprintf("P=%d k=%d %v", s.p, s.k, s.dist)
		mk := func() *rts.Loop {
			return &rts.Loop{
				Cfg:  inspector.Config{P: s.p, K: s.k, NumIters: edges, NumElems: nodes, Dist: s.dist},
				Mode: rts.Reduce,
				Ind:  [][]int32{i1, i2},
				Cost: rts.KernelCost{Flops: 4, IterArrays: 2, NodeArrays: 1, UpdateFlopsPerElem: 1, UpdateArraysPerElem: 1},
			}
		}

		l := mk()
		n, err := rts.NewNative(l)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		n.Contribs = contribs
		n.Update = func(p, _ int) { update(n.X, l.Cfg, p) }
		if err := n.Run(steps); err != nil {
			t.Fatalf("%s native: %v", label, err)
		}
		compare(t, label+" native", n.X, want, true)

		l = mk()
		ex := &rts.SimExec{Contribs: contribs}
		ex.Update = func(p, _ int) { update(ex.X, l.Cfg, p) }
		opt := rts.SimOptions{Steps: steps, WarmSteps: 1, MeasureSteps: steps - 1, Exec: ex}
		if _, err := rts.RunSim(l, opt); err != nil {
			t.Fatalf("%s sim: %v", label, err)
		}
		compare(t, label+" sim", ex.X, want, true)
	}
}

package difftest

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"irred/internal/inspector"
	"irred/internal/mesh"
	"irred/internal/rts"
)

// This file is the incremental-revision oracle: Schedule.Update applied to
// a resident schedule must be observationally identical to throwing the
// schedule away and re-running the LightInspector on the revised
// indirection arrays. Integral contributions make the comparison bitwise
// (every partial sum exactly representable); float contributions get the
// usual reordering tolerance, because Update legitimately re-orders
// iterations within a phase (swap-remove insertion) relative to a fresh
// inspection. This is the contract the service's streaming sessions stand
// on — a delta-updated session result must be indistinguishable from
// resubmitting the whole problem.

// incCase is a raw multi-reference reduction: for each iteration i and
// reference r, x[ind[r][i]] += w[i]·(r+1).
type incCase struct {
	iters, elems int
	ind          [][]int32
	w            []float64
}

func randIncCase(rng *rand.Rand, refs int, integral bool) *incCase {
	c := &incCase{
		iters: 400 + rng.Intn(400),
		elems: 60 + rng.Intn(120),
	}
	c.ind = make([][]int32, refs)
	for r := range c.ind {
		c.ind[r] = make([]int32, c.iters)
		for i := range c.ind[r] {
			c.ind[r][i] = int32(rng.Intn(c.elems))
		}
	}
	c.w = make([]float64, c.iters)
	for i := range c.w {
		if integral {
			c.w[i] = float64(1 + rng.Intn(8))
		} else {
			c.w[i] = rng.NormFloat64()
		}
	}
	return c
}

func (c *incCase) sequential(steps int) []float64 {
	x := make([]float64, c.elems)
	for s := 0; s < steps; s++ {
		for i := 0; i < c.iters; i++ {
			for r := range c.ind {
				x[c.ind[r][i]] += c.w[i] * float64(r+1)
			}
		}
	}
	return x
}

func (c *incCase) loop(p, k int, dist inspector.Dist) *rts.Loop {
	return &rts.Loop{
		Cfg:  inspector.Config{P: p, K: k, NumIters: c.iters, NumElems: c.elems, Dist: dist},
		Mode: rts.Reduce,
		Ind:  c.ind,
	}
}

// runFrom executes the native engine from the given resident schedules.
func (c *incCase) runFrom(scheds []*inspector.Schedule, p, k int, dist inspector.Dist, steps int) ([]float64, error) {
	n, err := rts.NewNativeFrom(c.loop(p, k, dist), scheds)
	if err != nil {
		return nil, err
	}
	n.Contribs = func(_, i int, out []float64) {
		for r := range c.ind {
			out[r] = c.w[i] * float64(r+1)
		}
	}
	if err := n.Run(steps); err != nil {
		return nil, err
	}
	return n.X, nil
}

// mutateCase rewrites n distinct iterations to fresh indirection targets
// and returns the changed list, sorted.
func mutateCase(rng *rand.Rand, c *incCase, n int) []int32 {
	perm := rng.Perm(c.iters)[:n]
	sort.Ints(perm)
	changed := make([]int32, n)
	for j, it := range perm {
		changed[j] = int32(it)
		for r := range c.ind {
			c.ind[r][it] = int32(rng.Intn(c.elems))
		}
	}
	return changed
}

// TestIncrementalMatchesFullReinspection sweeps contribution families ×
// strategies × delta sizes. After every delta, the incrementally revised
// schedules and freshly inspected schedules must both reproduce the
// sequential reference — and each other, bitwise, in the integral family.
func TestIncrementalMatchesFullReinspection(t *testing.T) {
	for _, integral := range []bool{true, false} {
		family := "float"
		if integral {
			family = "integral"
		}
		rng := rand.New(rand.NewSource(2026))
		for _, st := range strategies {
			c := randIncCase(rng, 1+rng.Intn(2)+1, integral)
			cfg := inspector.Config{P: st.p, K: st.k, NumIters: c.iters, NumElems: c.elems, Dist: st.dist}
			scheds := make([]*inspector.Schedule, st.p)
			for p := 0; p < st.p; p++ {
				s, err := inspector.Light(cfg, p, c.ind...)
				if err != nil {
					t.Fatal(err)
				}
				s.BeginIncremental()
				scheds[p] = s
			}
			for _, deltaN := range []int{1, 8, 40, c.iters / 10, 3 * c.iters / 10} {
				label := fmt.Sprintf("%s/P%dk%d%v/delta%d", family, st.p, st.k, st.dist, deltaN)
				changed := mutateCase(rng, c, deltaN)
				for p, s := range scheds {
					if err := s.Update(changed, c.ind...); err != nil {
						t.Fatalf("%s: proc %d: %v", label, p, err)
					}
				}
				if err := inspector.CheckSet(cfg, scheds, c.ind...); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				fresh := make([]*inspector.Schedule, st.p)
				for p := 0; p < st.p; p++ {
					s, err := inspector.Light(cfg, p, c.ind...)
					if err != nil {
						t.Fatal(err)
					}
					fresh[p] = s
				}
				gotIncr, err := c.runFrom(scheds, st.p, st.k, st.dist, 1)
				if err != nil {
					t.Fatalf("%s: incremental run: %v", label, err)
				}
				gotFull, err := c.runFrom(fresh, st.p, st.k, st.dist, 1)
				if err != nil {
					t.Fatalf("%s: full run: %v", label, err)
				}
				want := c.sequential(1)
				compare(t, label+"/incr-vs-seq", gotIncr, want, integral)
				compare(t, label+"/full-vs-seq", gotFull, want, integral)
				if integral {
					compare(t, label+"/incr-vs-full", gotIncr, gotFull, true)
				}
			}
		}
	}
}

// TestIncrementalMeshSoak200 is the randomized long-haul: an adaptive mesh
// absorbs 200 deterministic refinement steps of varying sparsity, the
// resident schedules are revised incrementally after each — never rebuilt —
// and the parallel result is cross-checked bitwise against the sequential
// reference after every single step.
func TestIncrementalMeshSoak200(t *testing.T) {
	m := mesh.Generate(400, 1800, 5)
	rng := rand.New(rand.NewSource(500))
	cfg := inspector.Config{P: 3, K: 2, NumIters: m.NumEdges(), NumElems: m.NumNodes, Dist: inspector.Cyclic}
	c := &incCase{iters: m.NumEdges(), elems: m.NumNodes, ind: [][]int32{m.I1, m.I2}}
	c.w = make([]float64, c.iters)
	for i := range c.w {
		c.w[i] = float64(1 + rng.Intn(8))
	}
	scheds := make([]*inspector.Schedule, cfg.P)
	for p := 0; p < cfg.P; p++ {
		s, err := inspector.Light(cfg, p, c.ind...)
		if err != nil {
			t.Fatal(err)
		}
		s.BeginIncremental()
		scheds[p] = s
	}
	fracs := []float64{0.002, 0.01, 0.05, 0.15}
	for step := 0; step < 200; step++ {
		changed := m.Adapt(step, fracs[step%len(fracs)], 11)
		for p, s := range scheds {
			if err := s.Update(changed, c.ind...); err != nil {
				t.Fatalf("step %d: proc %d: %v", step, p, err)
			}
		}
		got, err := c.runFrom(scheds, cfg.P, cfg.K, cfg.Dist, 1)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		compare(t, fmt.Sprintf("step%d", step), got, c.sequential(1), true)
		if err := inspector.CheckSet(cfg, scheds, c.ind...); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

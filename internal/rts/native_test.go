package rts

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"irred/internal/inspector"
)

func randLoop(rng *rand.Rand, p, k, iters, elems, refs int, dist inspector.Dist, comp int) *Loop {
	ind := make([][]int32, refs)
	for r := range ind {
		ind[r] = make([]int32, iters)
		for i := range ind[r] {
			ind[r][i] = int32(rng.Intn(elems))
		}
	}
	return &Loop{
		Cfg:  inspector.Config{P: p, K: k, NumIters: iters, NumElems: elems, Dist: dist},
		Mode: Reduce,
		Ind:  ind,
		Cost: KernelCost{Flops: 4, IntOps: 2, IterArrays: 1, Comp: comp},
	}
}

func seqReduce(l *Loop, contrib func(i, r, c int) float64) []float64 {
	comp := l.Cost.comp()
	x := make([]float64, l.Cfg.NumElems*comp)
	for i := 0; i < l.Cfg.NumIters; i++ {
		for r := range l.Ind {
			e := int(l.Ind[r][i])
			for c := 0; c < comp; c++ {
				x[e*comp+c] += contrib(i, r, c)
			}
		}
	}
	return x
}

func near(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol*(1+math.Abs(b[i])) {
			return false
		}
	}
	return true
}

func TestNativeReduceMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	contrib := func(i, r, c int) float64 { return float64(i+1)*0.5 + float64(r) + float64(c)*0.25 }
	for _, p := range []int{1, 2, 4, 7} {
		for _, k := range []int{1, 2, 4} {
			for _, dist := range []inspector.Dist{inspector.Block, inspector.Cyclic} {
				for _, comp := range []int{1, 3} {
					l := randLoop(rng, p, k, 333, 97, 2, dist, comp)
					n, err := NewNative(l)
					if err != nil {
						t.Fatal(err)
					}
					n.Contribs = func(_, i int, out []float64) {
						for r := 0; r < len(l.Ind); r++ {
							for c := 0; c < comp; c++ {
								out[r*comp+c] = contrib(i, r, c)
							}
						}
					}
					if err := n.Run(1); err != nil {
						t.Fatal(err)
					}
					if !near(n.X, seqReduce(l, contrib), 1e-9) {
						t.Fatalf("P=%d k=%d %v comp=%d: native diverged", p, k, dist, comp)
					}
				}
			}
		}
	}
}

func TestNativeMultiStepAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := randLoop(rng, 4, 2, 200, 64, 2, inspector.Cyclic, 1)
	n, err := NewNative(l)
	if err != nil {
		t.Fatal(err)
	}
	n.Contribs = func(_, i int, out []float64) { out[0], out[1] = 1, 2 }
	const steps = 5
	if err := n.Run(steps); err != nil {
		t.Fatal(err)
	}
	want := seqReduce(l, func(i, r, c int) float64 { return float64(steps) * float64(r+1) })
	if !near(n.X, want, 1e-9) {
		t.Fatal("multi-step accumulation diverged")
	}
}

// TestSeedResume: 2 sweeps, then a fresh engine whose X is seeded with
// that state running 1 more sweep, equals 3 sweeps in one go, bitwise on
// integral contributions — the contract the service's checkpoint/resume
// path is built on.
func TestSeedResume(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	l := randLoop(rng, 3, 2, 200, 50, 2, inspector.Cyclic, 1)
	run := func(seed []float64, steps int) []float64 {
		n, err := NewNative(l)
		if err != nil {
			t.Fatal(err)
		}
		n.Contribs = func(_, i int, out []float64) {
			for r := range out {
				out[r] = float64((i%7 + 1) * (r + 2))
			}
		}
		copy(n.X, seed)
		if err := n.Run(steps); err != nil {
			t.Fatal(err)
		}
		return n.X
	}
	want := run(nil, 3)
	got := run(run(nil, 2), 1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seeded resume diverged from the uninterrupted run at %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestNativeUpdateHookBarrier(t *testing.T) {
	// The update must observe every contribution of the step: scale X by
	// 0.5 each step; final value is then a fixed point computation we can
	// replay sequentially.
	rng := rand.New(rand.NewSource(10))
	l := randLoop(rng, 3, 2, 150, 48, 2, inspector.Block, 1)
	n, err := NewNative(l)
	if err != nil {
		t.Fatal(err)
	}
	n.Contribs = func(_, i int, out []float64) { out[0], out[1] = 1, 1 }
	n.Update = func(p, step int) {
		lo, _ := l.Cfg.PortionBounds(l.Cfg.PortionAt(p, 0))
		_, hi := l.Cfg.PortionBounds(l.Cfg.PortionAt(p, l.Cfg.K-1))
		for e := lo; e < hi; e++ {
			n.X[e] *= 0.5
		}
	}
	const steps = 4
	if err := n.Run(steps); err != nil {
		t.Fatal(err)
	}
	// Sequential replay.
	want := make([]float64, l.Cfg.NumElems)
	for s := 0; s < steps; s++ {
		for i := 0; i < l.Cfg.NumIters; i++ {
			for r := range l.Ind {
				want[l.Ind[r][i]]++
			}
		}
		for e := range want {
			want[e] *= 0.5
		}
	}
	if !near(n.X, want, 1e-9) {
		t.Fatal("update hook saw incomplete sweeps")
	}
}

func TestNativeGatherMVM(t *testing.T) {
	// y = A*x with A in COO form: gather mode rotates x.
	rng := rand.New(rand.NewSource(3))
	const n, nnz = 60, 500
	row := make([]int32, nnz)
	col := make([]int32, nnz)
	a := make([]float64, nnz)
	for i := range row {
		row[i] = int32(rng.Intn(n))
		col[i] = int32(rng.Intn(n))
		a[i] = rng.Float64()
	}
	for _, p := range []int{1, 2, 4} {
		for _, k := range []int{1, 2} {
			l := &Loop{
				Cfg:       inspector.Config{P: p, K: k, NumIters: nnz, NumElems: n, Dist: inspector.Block},
				Mode:      Gather,
				Ind:       [][]int32{col},
				Cost:      KernelCost{Flops: 2, IterArrays: 2},
				GatherOut: row,
			}
			nat, err := NewNative(l)
			if err != nil {
				t.Fatal(err)
			}
			x := nat.X
			for i := range x {
				x[i] = float64(i%7) + 1
			}
			// Per-processor partial outputs avoid write sharing on rows.
			partial := make([][]float64, p)
			for q := range partial {
				partial[q] = make([]float64, n)
			}
			nat.Consume = func(q, i int, vals []float64) {
				partial[q][row[i]] += a[i] * vals[0]
			}
			if err := nat.Run(1); err != nil {
				t.Fatal(err)
			}
			got := make([]float64, n)
			for q := range partial {
				for r := range got {
					got[r] += partial[q][r]
				}
			}
			want := make([]float64, n)
			for i := 0; i < nnz; i++ {
				want[row[i]] += a[i] * x[col[i]]
			}
			if !near(got, want, 1e-9) {
				t.Fatalf("P=%d k=%d: gather mvm diverged", p, k)
			}
		}
	}
}

func TestNativeGatherRequiresSingleRef(t *testing.T) {
	l := &Loop{
		Cfg:  inspector.Config{P: 2, K: 1, NumIters: 4, NumElems: 4},
		Mode: Gather,
		Ind:  [][]int32{{0, 1, 2, 3}, {3, 2, 1, 0}},
	}
	if err := l.Validate(); err == nil {
		t.Fatal("two-reference gather loop accepted")
	}
}

func TestNativeMissingCallback(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := randLoop(rng, 2, 1, 10, 8, 1, inspector.Block, 1)
	n, err := NewNative(l)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(1); err == nil {
		t.Fatal("reduce run without Contribs accepted")
	}
}

// Property: random shapes, native == sequential.
func TestNativeEquivalenceProperty(t *testing.T) {
	prop := func(seed int64, pRaw, kRaw, nRaw uint8, cyclic bool) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + int(pRaw)%6
		k := 1 + int(kRaw)%3
		iters := 1 + int(nRaw)
		dist := inspector.Block
		if cyclic {
			dist = inspector.Cyclic
		}
		l := randLoop(rng, p, k, iters, 41, 2, dist, 1)
		n, err := NewNative(l)
		if err != nil {
			return false
		}
		n.Contribs = func(_, i int, out []float64) { out[0], out[1] = float64(i), float64(2*i) }
		if err := n.Run(1); err != nil {
			return false
		}
		want := seqReduce(l, func(i, r, c int) float64 { return float64((r + 1) * i) })
		return near(n.X, want, 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNativeTinyElementCount(t *testing.T) {
	// Fewer elements than portions (NumElems < k*P): some portions are
	// empty, but rotation and correctness must hold.
	rng := rand.New(rand.NewSource(31))
	l := randLoop(rng, 4, 4, 50, 5, 2, inspector.Cyclic, 1) // 5 elems, 16 portions
	n, err := NewNative(l)
	if err != nil {
		t.Fatal(err)
	}
	n.Contribs = func(_, i int, out []float64) { out[0], out[1] = 1, 2 }
	if err := n.Run(2); err != nil {
		t.Fatal(err)
	}
	want := seqReduce(l, func(i, r, c int) float64 { return 2 * float64(r+1) })
	if !near(n.X, want, 1e-9) {
		t.Fatal("tiny element count diverged")
	}
}

func TestNativeFewerIterationsThanProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	l := randLoop(rng, 8, 2, 3, 16, 2, inspector.Block, 1) // 3 iters on 8 procs
	n, err := NewNative(l)
	if err != nil {
		t.Fatal(err)
	}
	n.Contribs = func(_, i int, out []float64) { out[0], out[1] = float64(i), float64(i) }
	if err := n.Run(1); err != nil {
		t.Fatal(err)
	}
	want := seqReduce(l, func(i, r, c int) float64 { return float64(i) })
	if !near(n.X, want, 1e-9) {
		t.Fatal("sparse iteration distribution diverged")
	}
}

func TestSimTinyShapes(t *testing.T) {
	// The simulated program must not deadlock on degenerate shapes either.
	rng := rand.New(rand.NewSource(33))
	for _, tc := range []struct{ p, k, iters, elems int }{
		{4, 4, 50, 5},
		{8, 2, 3, 16},
		{2, 1, 1, 1},
	} {
		l := randLoop(rng, tc.p, tc.k, tc.iters, tc.elems, 2, inspector.Cyclic, 1)
		if _, err := RunSim(l, SimOptions{Steps: 3}); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
	}
}

package rts

import (
	"math"
	"math/rand"
	"testing"

	"irred/internal/algebra"
	"irred/internal/inspector"
)

func combineLoop(kind algebra.Kind, nIters, nElems int, ind []int32) *Loop {
	return &Loop{
		Cfg:     inspector.Config{P: 4, K: 2, NumIters: nIters, NumElems: nElems},
		Mode:    Reduce,
		Ind:     [][]int32{ind},
		Cost:    KernelCost{Flops: 1},
		Combine: algebra.Op{Kind: kind},
	}
}

// TestNativeNonAddCombine drives the rotation engine itself with a min
// combine: identity-seeded buffers plus op.Fold at every accumulation
// site must reproduce the sequential min exactly.
func TestNativeNonAddCombine(t *testing.T) {
	const nIters, nElems = 60, 9
	rng := rand.New(rand.NewSource(3))
	ind := make([]int32, nIters)
	w := make([]float64, nIters)
	for i := range ind {
		ind[i] = int32(rng.Intn(nElems))
		w[i] = float64(rng.Intn(100) - 50)
	}
	l := combineLoop(algebra.Min, nIters, nElems, ind)
	n, err := NewNative(l)
	if err != nil {
		t.Fatalf("NewNative: %v", err)
	}
	want := make([]float64, nElems)
	for e := range want {
		n.X[e] = 1e6
		want[e] = 1e6
	}
	n.Contribs = func(p, i int, out []float64) { out[0] = w[i] }
	if err := n.Run(1); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < nIters; i++ {
		want[ind[i]] = math.Min(want[ind[i]], w[i])
	}
	for e := range want {
		if n.X[e] != want[e] {
			t.Fatalf("element %d: rotation min %g != sequential %g", e, n.X[e], want[e])
		}
	}
}

// TestValidateCombineRules pins the runtime's algebraic preconditions.
func TestValidateCombineRules(t *testing.T) {
	ind := make([]int32, 8)
	l := combineLoop(algebra.Add, 8, 4, ind)
	l.Combine = algebra.Op{Kind: algebra.Custom} // no identity
	if err := l.Validate(); err == nil {
		t.Fatal("combine without identity must not validate")
	}
	g := &Loop{
		Cfg:     inspector.Config{P: 2, K: 1, NumIters: 8, NumElems: 4},
		Mode:    Gather,
		Ind:     [][]int32{ind},
		Combine: algebra.Op{Kind: algebra.Min},
	}
	if err := g.Validate(); err == nil {
		t.Fatal("non-add combine on a gather loop must not validate")
	}
}

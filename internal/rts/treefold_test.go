package rts

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"irred/internal/algebra"
	"irred/internal/dataflow"
	"irred/internal/inspector"
	"irred/internal/lang"
)

// licenseFor runs the legality pass over an IRL source and returns the
// first loop's license — the same artifact the compiler would attach.
func licenseFor(t *testing.T, src string) *dataflow.License {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	lics := dataflow.LegalizeProgram(prog, dataflow.Options{})
	if len(lics) == 0 {
		t.Fatalf("no loops in fixture")
	}
	return lics[len(lics)-1]
}

const treefoldAddSrc = `
param n, m
array ia[n] int
array x[m]
array w[n]
loop i = 0, n {
    x[ia[i]] += w[i]
}
`

const treefoldMinSrc = `
param n, m
array ia[n] int
array best[m]
array w[n]
loop i = 0, n {
    best[ia[i]] min= w[i]
}
`

const treefoldRefusedSrc = `
param n, m
array ia[n] int
array x[m]
array w[n]
loop i = 0, n {
    x[ia[i]] = x[ia[i]] * 0.5 + w[i]
}
`

func treefoldLoop(kind algebra.Kind, nIters, nElems int, ind []int32) *Loop {
	return &Loop{
		Cfg:     inspector.Config{P: 4, K: 2, NumIters: nIters, NumElems: nElems},
		Mode:    Reduce,
		Ind:     [][]int32{ind},
		Cost:    KernelCost{Flops: 1},
		Combine: algebra.Op{Kind: kind},
	}
}

func TestTreeFoldMatchesSequentialAdd(t *testing.T) {
	const nIters, nElems = 64, 10
	rng := rand.New(rand.NewSource(7))
	ind := make([]int32, nIters)
	w := make([]float64, nIters)
	for i := range ind {
		ind[i] = int32(rng.Intn(nElems))
		w[i] = float64(rng.Intn(21) - 10) // integral: fold order is exact
	}
	l := treefoldLoop(algebra.Add, nIters, nElems, ind)
	tf, err := NewTreeFold(l, licenseFor(t, treefoldAddSrc))
	if err != nil {
		t.Fatalf("NewTreeFold: %v", err)
	}
	tf.Contribs = func(p, i int, out []float64) { out[0] = w[i] }
	if err := tf.Run(1); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := make([]float64, nElems)
	for i := 0; i < nIters; i++ {
		want[ind[i]] += w[i]
	}
	for e := range want {
		if tf.X[e] != want[e] {
			t.Fatalf("element %d: tree fold %g != sequential %g", e, tf.X[e], want[e])
		}
	}
}

func TestTreeFoldMinCombine(t *testing.T) {
	const nIters, nElems = 48, 7
	rng := rand.New(rand.NewSource(11))
	ind := make([]int32, nIters)
	w := make([]float64, nIters)
	for i := range ind {
		ind[i] = int32(rng.Intn(nElems))
		w[i] = float64(rng.Intn(100))
	}
	l := treefoldLoop(algebra.Min, nIters, nElems, ind)
	tf, err := NewTreeFold(l, licenseFor(t, treefoldMinSrc))
	if err != nil {
		t.Fatalf("NewTreeFold: %v", err)
	}
	// Accumulate on top of pre-seeded values, like the rotation engine.
	want := make([]float64, nElems)
	for e := range want {
		tf.X[e] = 1e6
		want[e] = 1e6
	}
	tf.Contribs = func(p, i int, out []float64) { out[0] = w[i] }
	if err := tf.Run(1); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < nIters; i++ {
		want[ind[i]] = math.Min(want[ind[i]], w[i])
	}
	for e := range want {
		if tf.X[e] != want[e] {
			t.Fatalf("element %d: tree min %g != sequential %g", e, tf.X[e], want[e])
		}
	}
}

func TestTreeFoldRefusesWithoutLicense(t *testing.T) {
	ind := make([]int32, 8)
	l := treefoldLoop(algebra.Add, 8, 4, ind)
	if _, err := NewTreeFold(l, nil); err == nil {
		t.Fatal("nil license must be refused")
	}
	lic := licenseFor(t, treefoldRefusedSrc)
	if lic.TreeFold {
		t.Fatalf("fixture unexpectedly licensed: %s", lic.Report())
	}
	_, err := NewTreeFold(l, lic)
	if err == nil {
		t.Fatal("refused license must block tree-fold construction")
	}
	if !strings.Contains(err.Error(), "TreeFoldLegal") {
		t.Fatalf("error should name the required grant: %v", err)
	}
}

func TestTreeFoldRangeCheck(t *testing.T) {
	ind := []int32{0, 1, 2, 99, 1, 0, 2, 1} // 99 is out of range
	l := treefoldLoop(algebra.Add, len(ind), 4, ind)
	tf, err := NewTreeFold(l, licenseFor(t, treefoldAddSrc))
	if err != nil {
		t.Fatalf("NewTreeFold: %v", err)
	}
	tf.Contribs = func(p, i int, out []float64) { out[0] = 1 }
	if err := tf.Run(1); err == nil {
		t.Fatal("out-of-range target must be reported")
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
	l := treefoldLoop(algebra.Min, nIters, nElems, ind)
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
	l := treefoldLoop(algebra.Add, 8, 4, ind)
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

// TestTreeFoldBlockEqualsContribs: the block form, called on runs of at
// most 256 consecutive iterations of each worker's chunk, folds the same
// bits as a per-iteration Contribs (wrapped once per Run) — non-integral
// weights, two references, two components, chunks spanning several blocks.
func TestTreeFoldBlockEqualsContribs(t *testing.T) {
	const nIters, nElems, comp = 2100, 37, 2
	rng := rand.New(rand.NewSource(5))
	ind := [][]int32{make([]int32, nIters), make([]int32, nIters)}
	w := make([]float64, nIters)
	for i := range w {
		ind[0][i], ind[1][i] = int32(rng.Intn(nElems)), int32(rng.Intn(nElems))
		w[i] = rng.NormFloat64()
	}
	contrib := func(i int, out []float64) {
		out[0], out[1], out[2], out[3] = w[i], -w[i], w[i]*w[i], 0.5*w[i]
	}
	run := func(set func(tf *TreeFold)) []float64 {
		l := treefoldLoop(algebra.Add, nIters, nElems, nil)
		l.Ind, l.Cost.Comp = ind, comp
		tf, err := NewTreeFold(l, licenseFor(t, treefoldAddSrc))
		if err != nil {
			t.Fatal(err)
		}
		set(tf)
		if err := tf.Run(2); err != nil {
			t.Fatal(err)
		}
		return tf.X
	}
	want := run(func(tf *TreeFold) {
		tf.Contribs = func(_, i int, out []float64) { contrib(i, out) }
	})
	got := run(func(tf *TreeFold) {
		tf.ContribBlock = func(_ int, iters []int32, out []float64) {
			if len(iters) == 0 || len(iters) > 256 {
				t.Errorf("block of %d iterations", len(iters))
			}
			for j, it := range iters {
				if j > 0 && it != iters[j-1]+1 {
					t.Errorf("non-consecutive block %v", iters)
				}
				contrib(int(it), out[j*2*comp:])
			}
		}
	})
	for e := range want {
		if math.Float64bits(got[e]) != math.Float64bits(want[e]) {
			t.Fatalf("X[%d]: block %v, per-iteration %v", e, got[e], want[e])
		}
	}
}

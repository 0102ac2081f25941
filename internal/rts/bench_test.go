package rts_test

import (
	"math/rand"
	"testing"

	"irred/internal/inspector"
	"irred/internal/kernels"
	"irred/internal/mesh"
	"irred/internal/rts"
	"irred/internal/sparse"
)

// BenchmarkNativeSweep times one native sweep — the "one native phase"
// primitive: ns/op is the wall time of a sweep of k*P phases at P = 2,
// k = 2, cyclic, the strategy of the repo benchmark's native.fine.
//
//	euler-2k/block    the paper's 2k mesh, kernel-supplied block function,
//	                  Update hook on (two barriers per sweep)
//	euler-2k/adapter  the same over the per-iteration Contribs
//	euler-2k/guarded  the same through the guarded bodies
//	raw-pair          a random two-reference comp=1 loop, no Update
//	                  (pipelined sweeps), contributions from a block
//	                  function: the Native scans its schedule set once and
//	                  the unchecked body runs
//	raw-pair-data     the same loop with its contributions as data
//	                  (Weights, Coef {1, -1}), the form every served raw
//	                  job runs
//	raw-pair-run1     the data-form loop as a served raw job runs it: a
//	                  fresh Native over cached schedules, then Run(1) —
//	                  one scan, worker start and one sweep per op
//	raw-pair-p1       raw-pair at P = 1, k = 1: the engine's own cost
//	raw-pair-data-p1  raw-pair-data at P = 1, k = 1
//	raw-pair-seq      the same arrays and weights through the plain
//	                  sequential loop on one core: the baseline the P = 1
//	                  rows are judged against
//	raw-three         raw-pair with a third reference: the scalar fast
//	                  body that every reference count but two takes
//	raw-three-data    raw-pair-data with a third reference: the data-form
//	                  body every reference count but two takes
//	mvm-A/block       NAS CG class A (1,853,104 nonzeros) in gather mode, the
//	                  repo benchmark's native.coarse: the kernel's block loop
//	                  over its packed copy of the matrix
//	mvm-A/adapter     the same over the per-iteration Consume, which reads
//	                  Val and Rows where the matrix keeps them
func BenchmarkNativeSweep(b *testing.B) {
	const P, K, batch = 2, 2, 64

	nodes, edges := mesh.Paper2K()
	eu := kernels.NewEuler(mesh.Generate(nodes, edges, 1), 1)
	euler := func(b *testing.B, prepare func(n *rts.Native)) {
		n, q, err := eu.NewNative(P, K, inspector.Cyclic)
		if err != nil {
			b.Fatal(err)
		}
		prepare(n)
		b.ReportAllocs()
		b.ResetTimer()
		// The state is reset every batch so that it stays in the range the
		// kernel was written for however large b.N grows.
		for done := 0; done < b.N; done += batch {
			copy(q, eu.Q)
			clear(n.X)
			if err := n.Run(min(batch, b.N-done)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("euler-2k/block", func(b *testing.B) { euler(b, func(*rts.Native) {}) })
	b.Run("euler-2k/adapter", func(b *testing.B) { euler(b, func(n *rts.Native) { n.ContribBlock = nil }) })
	b.Run("euler-2k/guarded", func(b *testing.B) { euler(b, rts.ForceGuarded) })

	mv := kernels.NewMVM(sparse.Generate(sparse.ClassA, 1))
	mvm := func(b *testing.B, prepare func(n *rts.Native)) {
		n, err := mv.NewNative(P, K, inspector.Cyclic)
		if err != nil {
			b.Fatal(err)
		}
		prepare(n)
		b.ReportAllocs()
		b.ResetTimer()
		if err := n.Run(b.N); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("mvm-A/block", func(b *testing.B) { mvm(b, func(*rts.Native) {}) })
	b.Run("mvm-A/adapter", func(b *testing.B) { mvm(b, func(n *rts.Native) { n.ConsumeBlock = nil }) })

	const iters, elems = 32768, 4096
	rng := rand.New(rand.NewSource(1))
	ind := [][]int32{make([]int32, iters), make([]int32, iters)}
	w := make([]float64, iters)
	for i := range w {
		ind[0][i], ind[1][i] = int32(rng.Intn(elems)), int32(rng.Intn(elems))
		w[i] = float64(rng.Intn(9) + 1)
	}
	// The third reference is drawn after the first two so that raw-pair's
	// arrays stay what they have always been.
	third := make([]int32, iters)
	for i := range third {
		third[i] = int32(rng.Intn(elems))
	}
	// raw returns a constructor of fresh Natives over one schedule set of
	// the loop: contributions x[i0] += w, x[i1] -= w (and -= w for a third
	// reference), as data or from a block function.
	raw := func(b *testing.B, p, k int, ind [][]int32, data bool) func() *rts.Native {
		l := &rts.Loop{
			Cfg:  inspector.Config{P: p, K: k, NumIters: iters, NumElems: elems, Dist: inspector.Cyclic},
			Mode: rts.Reduce,
			Ind:  ind,
		}
		scheds, err := l.Schedules()
		if err != nil {
			b.Fatal(err)
		}
		refs := len(ind)
		coef := []float64{1, -1, -1}[:refs]
		return func() *rts.Native {
			n, err := rts.NewNativeFrom(l, scheds)
			if err != nil {
				b.Fatal(err)
			}
			if data {
				n.Weights, n.Coef = w, coef
				return n
			}
			n.ContribBlock = func(_ int, its []int32, out []float64) {
				for j, it := range its {
					o := out[refs*j:][:refs]
					o[0] = w[it]
					for r := 1; r < refs; r++ {
						o[r] = -w[it]
					}
				}
			}
			return n
		}
	}
	sweeps := func(b *testing.B, n *rts.Native) {
		b.ReportAllocs()
		b.ResetTimer()
		if err := n.Run(b.N); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("raw-pair", func(b *testing.B) { sweeps(b, raw(b, P, K, ind, false)()) })
	b.Run("raw-pair-data", func(b *testing.B) { sweeps(b, raw(b, P, K, ind, true)()) })
	b.Run("raw-pair-run1", func(b *testing.B) {
		newPair := raw(b, P, K, ind, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := newPair().Run(1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("raw-pair-p1", func(b *testing.B) { sweeps(b, raw(b, 1, 1, ind, false)()) })
	b.Run("raw-pair-data-p1", func(b *testing.B) { sweeps(b, raw(b, 1, 1, ind, true)()) })
	b.Run("raw-pair-seq", func(b *testing.B) {
		x := make([]float64, elems)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for it, v := range w {
				x[ind[0][it]] += v
				x[ind[1][it]] += -v
			}
		}
	})
	b.Run("raw-three", func(b *testing.B) { sweeps(b, raw(b, P, K, append(ind[:2:2], third), false)()) })
	b.Run("raw-three-data", func(b *testing.B) { sweeps(b, raw(b, P, K, append(ind[:2:2], third), true)()) })
}

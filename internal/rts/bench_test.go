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
//	                  (pipelined sweeps), no proof: CheckTargets scans once
//	                  per Run and the unchecked body runs
//	raw-pair-run1     the same loop as a served raw job runs it: a fresh
//	                  Native over cached schedules, then Run(1) — one scan,
//	                  worker start and one sweep per op
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
	pair := &rts.Loop{
		Cfg:  inspector.Config{P: P, K: K, NumIters: iters, NumElems: elems, Dist: inspector.Cyclic},
		Mode: rts.Reduce,
		Ind:  ind,
	}
	scheds, err := pair.Schedules()
	if err != nil {
		b.Fatal(err)
	}
	newPair := func(b *testing.B) *rts.Native {
		n, err := rts.NewNativeFrom(pair, scheds)
		if err != nil {
			b.Fatal(err)
		}
		n.ContribBlock = func(_ int, its []int32, out []float64) {
			for j, it := range its {
				out[2*j], out[2*j+1] = w[it], -w[it]
			}
		}
		return n
	}
	b.Run("raw-pair", func(b *testing.B) {
		n := newPair(b)
		b.ReportAllocs()
		b.ResetTimer()
		if err := n.Run(b.N); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("raw-pair-run1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := newPair(b).Run(1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

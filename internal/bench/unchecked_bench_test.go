package bench

import (
	"testing"

	"irred/internal/codegen"
	"irred/internal/inspector"
	"irred/internal/interp"
	"irred/internal/kernels"
	"irred/internal/mesh"
	"irred/internal/moldyn"
	"irred/internal/rts"
	"irred/internal/sparse"
)

// BenchmarkUncheckedKernels measures what the bounds proof buys at run
// time, on two layers:
//
//   - native/*: the hand-wired kernels on the goroutine engine, per-write
//     (or per-gather) target validation on vs elided by the scanned proof
//     the kernel Loops now carry;
//   - compiled/mvm: the full compiler pipeline on the MVM IRL source,
//     per-access range checks in the bytecode evaluator on (ForceChecked)
//     vs elided where the proof discharges the obligation.
//
// EXPERIMENTS.md records representative numbers.
func BenchmarkUncheckedKernels(b *testing.B) {
	const p, k = 4, 2

	benchNative := func(b *testing.B, build func() (*rts.Native, error)) {
		for _, mode := range []struct {
			name  string
			check bool
		}{{"checked", true}, {"unchecked", false}} {
			b.Run(mode.name, func(b *testing.B) {
				n, err := build()
				if err != nil {
					b.Fatal(err)
				}
				if n.CheckTargets {
					b.Fatal("kernel loop must carry its proof")
				}
				n.CheckTargets = mode.check
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := n.Run(1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	b.Run("native/mvm", func(b *testing.B) {
		mv := kernels.NewMVM(sparse.Generate(sparse.ClassS, 1))
		benchNative(b, func() (*rts.Native, error) {
			return mv.NewNative(p, k, inspector.Cyclic)
		})
	})
	b.Run("native/euler", func(b *testing.B) {
		nodes, edges := mesh.Paper2K()
		eu := kernels.NewEuler(mesh.Generate(nodes, edges, 1), 1)
		benchNative(b, func() (*rts.Native, error) {
			n, _, err := eu.NewNative(p, k, inspector.Cyclic)
			return n, err
		})
	})
	b.Run("native/moldyn", func(b *testing.B) {
		md := kernels.NewMoldyn(moldyn.Paper2K(1))
		benchNative(b, func() (*rts.Native, error) {
			n, _, _, err := md.NewNative(p, k, inspector.Cyclic)
			return n, err
		})
	})

	b.Run("compiled/mvm", func(b *testing.B) {
		a := sparse.Generate(sparse.ClassS, 1)
		mv := kernels.NewMVM(a)
		for _, mode := range []struct {
			name    string
			checked bool
		}{{"checked", true}, {"unchecked", false}} {
			b.Run(mode.name, func(b *testing.B) {
				u, err := codegen.Compile(kernels.MVMIRL)
				if err != nil {
					b.Fatal(err)
				}
				env := interp.NewEnv(u.Fissioned)
				env.SetParam("nnz", a.NNZ())
				env.SetParam("n", a.N)
				x := make([]float64, a.N)
				for i := range x {
					x[i] = 1
				}
				if err := env.BindInt("row", mv.Rows); err != nil {
					b.Fatal(err)
				}
				if err := env.BindInt("col", a.Col); err != nil {
					b.Fatal(err)
				}
				if err := env.BindFloat("a", a.Val); err != nil {
					b.Fatal(err)
				}
				if err := env.BindFloat("x", x); err != nil {
					b.Fatal(err)
				}
				if err := env.Alloc(); err != nil {
					b.Fatal(err)
				}
				plan := u.Plans[0]
				loop, block, err := plan.BuildLoopOpts(env, p, k, inspector.Cyclic,
					codegen.BuildOpts{ForceChecked: mode.checked})
				if err != nil {
					b.Fatal(err)
				}
				if !mode.checked && !plan.Facts.AllProven {
					b.Fatalf("mvm must prove completely:\n%s", plan.Facts.Report())
				}
				nat, err := rts.NewNative(loop)
				if err != nil {
					b.Fatal(err)
				}
				nat.ContribBlock = block
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := nat.Run(1); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if err := plan.RuntimeErr(); err != nil {
					b.Fatal(err)
				}
			})
		}
	})
}

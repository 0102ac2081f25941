package bench

import (
	"testing"

	"irred/internal/codegen"
	"irred/internal/inspector"
	"irred/internal/interp"
	"irred/internal/kernels"
	"irred/internal/rts"
	"irred/internal/sparse"
)

// BenchmarkUncheckedKernels measures what the bounds proof buys at run
// time: the full compiler pipeline on the MVM IRL source, per-access range
// checks in the bytecode evaluator on (ForceChecked) vs elided where the
// proof discharges the obligation. The native engine checks a schedule
// set's targets once, whatever the proof, so it has no such mode.
//
// EXPERIMENTS.md records representative numbers.
func BenchmarkUncheckedKernels(b *testing.B) {
	const p, k = 4, 2

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

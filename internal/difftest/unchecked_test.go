package difftest

import (
	"math"
	"math/rand"
	"testing"

	"irred/internal/codegen"
	"irred/internal/inspector"
	"irred/internal/interp"
	"irred/internal/kernels"
	"irred/internal/rts"
)

// bindMVM binds one mvmCase to a fresh environment for the compiled unit.
func bindMVM(t *testing.T, u *codegen.Unit, c mvmCase) *interp.Env {
	t.Helper()
	env := interp.NewEnv(u.Fissioned)
	env.SetParam("nnz", c.nnz)
	env.SetParam("n", c.n)
	if err := env.BindInt("row", c.row); err != nil {
		t.Fatal(err)
	}
	if err := env.BindInt("col", c.col); err != nil {
		t.Fatal(err)
	}
	if err := env.BindFloat("a", c.a); err != nil {
		t.Fatal(err)
	}
	if err := env.BindFloat("x", c.x); err != nil {
		t.Fatal(err)
	}
	if err := env.Alloc(); err != nil {
		t.Fatal(err)
	}
	return env
}

// buildAndRun compiles the MVM kernel over the case and runs it on the
// native engine, its bytecode checked or proof-optimized, returning the
// rotated array and the plan (for RuntimeErr).
func buildAndRun(t *testing.T, c mvmCase, p, k, steps int, forceChecked bool) ([]float64, *codegen.Plan) {
	t.Helper()
	u, err := codegen.Compile(kernels.MVMIRL)
	if err != nil {
		t.Fatal(err)
	}
	env := bindMVM(t, u, c)
	plan := u.Plans[0]
	loop, block, err := plan.BuildLoopOpts(env, p, k, inspector.Cyclic, codegen.BuildOpts{ForceChecked: forceChecked})
	if err != nil {
		t.Fatal(err)
	}
	nat, err := rts.NewNative(loop)
	if err != nil {
		t.Fatal(err)
	}
	nat.ContribBlock = block
	if err := nat.Run(steps); err != nil {
		t.Fatalf("native run: %v", err)
	}
	return nat.X, plan
}

// TestUncheckedBitIdentical is the proof-side differential oracle: on
// integral data, the proof-optimized build (no bytecode range checks) must
// agree BITWISE with the fully checked build for every strategy — eliding
// a check can never change a value.
func TestUncheckedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 4; trial++ {
		c := randMVM(rng, true)
		for _, pk := range [][2]int{{1, 1}, {2, 2}, {4, 2}} {
			p, k := pk[0], pk[1]
			checked, planC := buildAndRun(t, c, p, k, 2, true)
			unchecked, planU := buildAndRun(t, c, p, k, 2, false)
			if !planU.Facts.AllProven {
				t.Fatalf("in-range MVM must prove completely:\n%s", planU.Facts.Report())
			}
			if err := planC.RuntimeErr(); err != nil {
				t.Fatalf("checked build faulted on valid data: %v", err)
			}
			if err := planU.RuntimeErr(); err != nil {
				t.Fatalf("unchecked build faulted: %v", err)
			}
			for e := range checked {
				if math.Float64bits(checked[e]) != math.Float64bits(unchecked[e]) {
					t.Fatalf("trial %d P=%d k=%d: y[%d] checked %v != unchecked %v",
						trial, p, k, e, checked[e], unchecked[e])
				}
			}
		}
	}
}

// TestOOBInputDegradesGracefully feeds deliberately out-of-range read
// indirection (col) through both builds: the proof must fail for the
// affected access, both builds must fall back to checked execution there,
// complete the run, agree bitwise, and surface the fault via RuntimeErr.
func TestOOBInputDegradesGracefully(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := randMVM(rng, true)
	c.col[7] = int32(c.n + 100) // x[col[i]] escapes; row stays valid

	checked, planC := buildAndRun(t, c, 4, 2, 1, true)
	unchecked, planU := buildAndRun(t, c, 4, 2, 1, false)
	if planU.Facts.AllProven {
		t.Fatal("out-of-range col must defeat the proof")
	}
	if err := planC.RuntimeErr(); err == nil {
		t.Fatal("checked build must record the out-of-range access")
	}
	if err := planU.RuntimeErr(); err == nil {
		t.Fatal("fallback build must record the out-of-range access")
	}
	for e := range checked {
		if math.Float64bits(checked[e]) != math.Float64bits(unchecked[e]) {
			t.Fatalf("y[%d]: checked %v != fallback %v", e, checked[e], unchecked[e])
		}
	}
}

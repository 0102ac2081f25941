package difftest

import (
	"fmt"
	"math/rand"
	"testing"

	"irred/internal/codegen"
	"irred/internal/inspector"
	"irred/internal/interp"
	"irred/internal/kernels"
	"irred/internal/rts"
)

// The compiled-kernel differential property: for every kernel in
// internal/kernels, the rotation schedule under every ownership strategy
// must agree with the sequential interpreter — and for integral (exactly
// representable) data the agreement must be BITWISE, which is precisely
// the claim the W6 model check proves in the abstract and these tests
// confirm on the real compiled kernels.

// kernelCase is one kernel source plus a data binder. bind must be
// deterministic for a given case so every engine sees identical inputs.
type kernelCase struct {
	name   string
	src    string
	arrays []string // reduction arrays compared after the run
	exact  bool     // integral data: demand bitwise equality
	bind   func(env *interp.Env) error
}

// runPlans executes the compiled unit's plans in program order against
// env: regular plans through the interpreter, irregular plans through
// exec. Results land back in env's arrays via Scatter, so later plans
// (and the final comparison) see them.
func runPlans(u *codegen.Unit, env *interp.Env, exec func(p *codegen.Plan, env *interp.Env) error) error {
	for _, p := range u.Plans {
		if p.Kind == codegen.Regular {
			if err := env.RunLoop(p.Loop); err != nil {
				return err
			}
			continue
		}
		if err := exec(p, env); err != nil {
			return err
		}
	}
	return nil
}

// rotationExec runs one irregular plan on the native rotation engine,
// driving the plan's one-iteration view, or with block set the block form
// that compiled runners drive.
func rotationExec(procs, k int, dist inspector.Dist, block bool) func(p *codegen.Plan, env *interp.Env) error {
	return func(p *codegen.Plan, env *interp.Env) error {
		var nat *rts.Native
		if block {
			loop, cb, err := p.BuildLoopOpts(env, procs, k, dist, codegen.BuildOpts{})
			if err != nil {
				return err
			}
			if nat, err = rts.NewNative(loop); err != nil {
				return err
			}
			nat.ContribBlock = cb
		} else {
			loop, contribs, err := p.BuildLoop(env, procs, k, dist)
			if err != nil {
				return err
			}
			if nat, err = rts.NewNative(loop); err != nil {
				return err
			}
			nat.Contribs = contribs
		}
		if err := p.Pack(env, nat.X); err != nil {
			return err
		}
		if err := nat.Run(1); err != nil {
			return err
		}
		return p.Scatter(env, nat.X)
	}
}

func mvmKernelCase(seed int64) kernelCase {
	rng := rand.New(rand.NewSource(seed))
	nnz, n := 300+rng.Intn(700), 50+rng.Intn(200)
	row := make([]int32, nnz)
	col := make([]int32, nnz)
	a := make([]float64, nnz)
	x := make([]float64, n)
	for i := 0; i < nnz; i++ {
		row[i] = int32(rng.Intn(n))
		col[i] = int32(rng.Intn(n))
		a[i] = float64(1 + rng.Intn(8))
	}
	for e := range x {
		x[e] = float64(1 + rng.Intn(8))
	}
	return kernelCase{
		name: "mvm", src: kernels.MVMIRL, arrays: []string{"y"}, exact: true,
		bind: func(env *interp.Env) error {
			env.SetParam("nnz", nnz)
			env.SetParam("n", n)
			if err := env.BindInt("row", row); err != nil {
				return err
			}
			if err := env.BindInt("col", col); err != nil {
				return err
			}
			if err := env.BindFloat("a", a); err != nil {
				return err
			}
			return env.BindFloat("x", x)
		},
	}
}

func eulerKernelCase(seed int64) kernelCase {
	rng := rand.New(rand.NewSource(seed))
	edges, nodes := 400+rng.Intn(800), 60+rng.Intn(140)
	ia := make([]int32, 2*edges)
	w := make([]float64, edges)
	qs := make([][]float64, 3)
	for i := 0; i < edges; i++ {
		ia[2*i] = int32(rng.Intn(nodes))
		ia[2*i+1] = int32(rng.Intn(nodes))
		w[i] = float64(1 + rng.Intn(4))
	}
	for c := range qs {
		qs[c] = make([]float64, nodes)
		for e := range qs[c] {
			// Integral states: every intermediate in the euler body is a
			// dyadic rational (x * 0.25 etc.), so sums stay exact.
			qs[c][e] = float64(1 + rng.Intn(8))
		}
	}
	return kernelCase{
		name: "euler", src: kernels.EulerIRL, arrays: []string{"r1", "r2", "r3"}, exact: true,
		bind: func(env *interp.Env) error {
			env.SetParam("num_edges", edges)
			env.SetParam("num_nodes", nodes)
			if err := env.BindInt("ia", ia); err != nil {
				return err
			}
			if err := env.BindFloat("w", w); err != nil {
				return err
			}
			for c, name := range []string{"q1", "q2", "q3"} {
				if err := env.BindFloat(name, qs[c]); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func minredKernelCase(seed int64) kernelCase {
	rng := rand.New(rand.NewSource(seed))
	edges, nodes := 500+rng.Intn(500), 40+rng.Intn(100)
	e := make([]int32, edges)
	w := make([]float64, edges)
	for i := range e {
		e[i] = int32(rng.Intn(nodes))
		w[i] = float64(rng.Intn(5000) - 1000)
	}
	return kernelCase{
		name: "minred", src: kernels.MinredIRL, arrays: []string{"best"}, exact: true,
		bind: func(env *interp.Env) error {
			env.SetParam("num_edges", edges)
			env.SetParam("num_nodes", nodes)
			if err := env.BindInt("e", e); err != nil {
				return err
			}
			return env.BindFloat("w", w)
		},
	}
}

func moldynKernelCase(seed int64) kernelCase {
	rng := rand.New(rand.NewSource(seed))
	inter, mol := 400+rng.Intn(600), 50+rng.Intn(150)
	ia := make([]int32, 2*inter)
	for i := 0; i < inter; i++ {
		a := rng.Intn(mol)
		b := rng.Intn(mol)
		for b == a {
			b = rng.Intn(mol)
		}
		ia[2*i], ia[2*i+1] = int32(a), int32(b)
	}
	ps := make([][]float64, 3)
	for c := range ps {
		ps[c] = make([]float64, mol)
		for e := range ps[c] {
			ps[c][e] = rng.NormFloat64() * 3
		}
	}
	return kernelCase{
		name: "moldyn", src: kernels.MoldynIRL, arrays: []string{"fx", "fy", "fz"}, exact: false,
		bind: func(env *interp.Env) error {
			env.SetParam("num_inter", inter)
			env.SetParam("num_mol", mol)
			if err := env.BindInt("ia", ia); err != nil {
				return err
			}
			for c, name := range []string{"px", "py", "pz"} {
				if err := env.BindFloat(name, ps[c]); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func runKernelCase(t *testing.T, kc kernelCase) {
	u, err := codegen.Compile(kc.src)
	if err != nil {
		t.Fatalf("%s: compile: %v", kc.name, err)
	}
	for _, p := range u.Plans {
		if p.Kind == codegen.Irregular && !p.License.Rotation {
			t.Fatalf("%s: plan %s not licensed for rotation:\n%s", kc.name, p.Name, p.License.Report())
		}
	}
	mkEnv := func() *interp.Env {
		env := interp.NewEnv(u.Fissioned)
		if err := kc.bind(env); err != nil {
			t.Fatalf("%s: bind: %v", kc.name, err)
		}
		if err := env.Alloc(); err != nil {
			t.Fatalf("%s: alloc: %v", kc.name, err)
		}
		return env
	}

	ref := mkEnv()
	if err := ref.Run(); err != nil {
		t.Fatalf("%s: reference run: %v", kc.name, err)
	}

	check := func(label string, env *interp.Env) {
		t.Helper()
		for _, a := range kc.arrays {
			compare(t, fmt.Sprintf("%s %s %s", kc.name, label, a), env.Floats[a], ref.Floats[a], kc.exact)
		}
	}

	for _, s := range strategies {
		for _, block := range []bool{false, true} {
			form := "one-iteration view"
			if block {
				form = "block form"
			}
			label := fmt.Sprintf("rotation P=%d k=%d %v, %s", s.p, s.k, s.dist, form)
			env := mkEnv()
			if err := runPlans(u, env, rotationExec(s.p, s.k, s.dist, block)); err != nil {
				t.Fatalf("%s %s: %v", kc.name, label, err)
			}
			check(label, env)
		}
	}
}

// TestCompiledKernelsAgreeWithOracle is the headline equivalence test:
// every compiled kernel, on the rotation engine under every ownership
// strategy, against the sequential interpreter — bitwise for the
// integral kernels (mvm, euler, minred), within tolerance for moldyn (its
// body divides, so inputs are not integral).
func TestCompiledKernelsAgreeWithOracle(t *testing.T) {
	for i, mk := range []func(int64) kernelCase{mvmKernelCase, eulerKernelCase, minredKernelCase, moldynKernelCase} {
		kc := mk(int64(40 + i))
		t.Run(kc.name, func(t *testing.T) { runKernelCase(t, kc) })
	}
}

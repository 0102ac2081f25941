package interp

import (
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"irred/internal/inspector"
	"irred/internal/kernels"
	"irred/internal/lang"
	"irred/internal/mesh"
)

const compileSrc = `
param n, m
array ia[n, 2] int
array y[n]
array c[m]
array x[m]
loop i = 0, n {
    t = y[i] * 2 + 1
    u = t - c[ia[i, 0]] / 4
    x[ia[i, 0]] += u * sqrt(abs(t)) + min(t, u) - max(0 - t, u) + n
    x[ia[i, 1]] -= t / (u + 100)
}
`

func compileEnv(t *testing.T, seed int64) (*Env, *lang.Loop) {
	t.Helper()
	prog := lang.MustParse(compileSrc)
	env := NewEnv(prog)
	env.SetParam("n", 300)
	env.SetParam("m", 64)
	rng := rand.New(rand.NewSource(seed))
	ia := make([]int32, 600)
	for i := range ia {
		ia[i] = int32(rng.Intn(64))
	}
	y := make([]float64, 300)
	c := make([]float64, 64)
	for i := range y {
		y[i] = rng.Float64()
	}
	for i := range c {
		c[i] = rng.Float64()
	}
	if err := env.BindInt("ia", ia); err != nil {
		t.Fatal(err)
	}
	if err := env.BindFloat("y", y); err != nil {
		t.Fatal(err)
	}
	if err := env.BindFloat("c", c); err != nil {
		t.Fatal(err)
	}
	if err := env.Alloc(); err != nil {
		t.Fatal(err)
	}
	return env, prog.Loops[0]
}

func TestCompiledMatchesTreeWalker(t *testing.T) {
	env, loop := compileEnv(t, 3)
	var exprs []lang.Expr
	for _, st := range loop.Body {
		if st.Scalar == "" {
			exprs = append(exprs, st.RHS)
		}
	}
	code, err := env.CompileIter(loop, exprs)
	if err != nil {
		t.Fatal(err)
	}
	if code.NumResults() != len(exprs) {
		t.Fatalf("NumResults = %d", code.NumResults())
	}
	want := make([]float64, len(exprs))
	got := make([]float64, len(exprs))
	for i := 0; i < 300; i++ {
		if err := env.IterEval(loop, i, exprs, want); err != nil {
			t.Fatal(err)
		}
		code.Eval(i, got)
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-12*(1+math.Abs(want[j])) {
				t.Fatalf("iter %d result %d: compiled %v, tree %v", i, j, got[j], want[j])
			}
		}
	}
}

func TestCompiledCloneIndependent(t *testing.T) {
	env, loop := compileEnv(t, 5)
	exprs := []lang.Expr{loop.Body[2].RHS}
	code, err := env.CompileIter(loop, exprs)
	if err != nil {
		t.Fatal(err)
	}
	clone := code.Clone()
	a := make([]float64, 1)
	b := make([]float64, 1)
	// Interleaved evaluation from two evaluators must not interfere.
	for i := 0; i < 50; i++ {
		code.Eval(i, a)
		clone.Eval(i, b)
		if a[0] != b[0] {
			t.Fatalf("iter %d: clone diverged: %v vs %v", i, a[0], b[0])
		}
	}
}

func TestCompileErrors(t *testing.T) {
	prog := lang.MustParse(`
param n
array a[n]
loop i = 0, n { a[i] = zz + 1 }
`)
	env := NewEnv(prog)
	env.SetParam("n", 4)
	if err := env.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := env.CompileIter(prog.Loops[0], []lang.Expr{prog.Loops[0].Body[0].RHS}); err == nil {
		t.Fatal("unbound identifier compiled")
	}
}

func TestCompileUnboundArray(t *testing.T) {
	prog := lang.MustParse(`
param n
array a[n]
array b[n]
loop i = 0, n { a[i] = b[i] }
`)
	env := NewEnv(prog)
	env.SetParam("n", 4)
	// b deliberately left unbound (no Alloc).
	if _, err := env.CompileIter(prog.Loops[0], []lang.Expr{prog.Loops[0].Body[0].RHS}); err == nil {
		t.Fatal("unbound array compiled")
	}
}

func BenchmarkTreeWalkEval(b *testing.B) {
	prog := lang.MustParse(compileSrc)
	env := NewEnv(prog)
	env.SetParam("n", 300)
	env.SetParam("m", 64)
	ia := make([]int32, 600)
	y := make([]float64, 300)
	c := make([]float64, 64)
	for i := range y {
		y[i] = 1.5
	}
	for i := range c {
		c[i] = 0.5
	}
	env.BindInt("ia", ia)
	env.BindFloat("y", y)
	env.BindFloat("c", c)
	env.Alloc()
	loop := prog.Loops[0]
	exprs := []lang.Expr{loop.Body[2].RHS, loop.Body[3].RHS}
	out := make([]float64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.IterEval(loop, i%300, exprs, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompiledEval(b *testing.B) {
	prog := lang.MustParse(compileSrc)
	env := NewEnv(prog)
	env.SetParam("n", 300)
	env.SetParam("m", 64)
	ia := make([]int32, 600)
	y := make([]float64, 300)
	c := make([]float64, 64)
	for i := range y {
		y[i] = 1.5
	}
	for i := range c {
		c[i] = 0.5
	}
	env.BindInt("ia", ia)
	env.BindFloat("y", y)
	env.BindFloat("c", c)
	env.Alloc()
	loop := prog.Loops[0]
	code, err := env.CompileIter(loop, []lang.Expr{loop.Body[2].RHS, loop.Body[3].RHS})
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code.Eval(i%300, out)
	}
}

// IterEval is the tree-walker oracle of the compiled evaluator: for
// iteration i of loop l, the values of the given expressions after
// executing the loop's scalar definitions.
func (e *Env) IterEval(l *lang.Loop, i int, exprs []lang.Expr, out []float64) error {
	f := &frame{loopVar: l.Var, i: i, temps: map[string]float64{}}
	for _, st := range l.Body {
		if st.Scalar != "" {
			v, err := e.evalExpr(st.RHS, f)
			if err != nil {
				return err
			}
			f.temps[st.Scalar] = v
		}
	}
	for j, x := range exprs {
		v, err := e.evalExpr(x, f)
		if err != nil {
			return err
		}
		out[j] = v
	}
	return nil
}

// bindAll binds every parameter of src to n and every array to seeded
// data: ints in [0, n), so every indirection stays in range, and floats in
// [0.5, 2).
func bindAll(t testing.TB, src string, n int, seed int64) *Env {
	t.Helper()
	prog := lang.MustParse(src)
	env := NewEnv(prog)
	for _, p := range prog.Params {
		env.SetParam(p, n)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, a := range prog.Arrays {
		size, err := env.Size(a.Name)
		if err != nil {
			t.Fatal(err)
		}
		if a.Int {
			data := make([]int32, size)
			for i := range data {
				data[i] = int32(rng.Intn(n))
			}
			env.Ints[a.Name] = data
			continue
		}
		data := make([]float64, size)
		for i := range data {
			data[i] = 0.5 + 1.5*rng.Float64()
		}
		env.Floats[a.Name] = data
	}
	return env
}

// rhsOf lists every statement's right-hand side, scalar definitions too.
func rhsOf(l *lang.Loop) []lang.Expr {
	exprs := make([]lang.Expr, len(l.Body))
	for i, st := range l.Body {
		exprs[i] = st.RHS
	}
	return exprs
}

var proveAll = CompileOpts{Unchecked: func(*lang.IndexExpr) bool { return true }}

// TestEvalBlockMatchesOracle: block evaluation, checked and unchecked, is
// bitwise the tree walker on every loop of the kernels' IRL, the cg
// example and this file's operator mix — at block sizes 1, 7 and 256
// (ragged last blocks: 600 is a multiple of none), the whole range in one
// call, and the non-contiguous iteration list of a real inspector schedule.
func TestEvalBlockMatchesOracle(t *testing.T) {
	const n = 600
	cg, err := os.ReadFile("../../examples/irl/cg.irl")
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	targets := make([]int32, n)
	for i := range targets {
		targets[i] = int32((i * 7919) % n)
	}
	sched, err := inspector.Light(inspector.Config{P: 3, K: 2, NumIters: n, NumElems: n, Dist: inspector.Cyclic}, 1, targets)
	if err != nil {
		t.Fatal(err)
	}
	var phased []int32
	for _, ph := range sched.Phases {
		phased = append(phased, ph.Iters...)
	}
	for _, body := range []struct{ name, src string }{
		{"euler", kernels.EulerIRL}, {"moldyn", kernels.MoldynIRL}, {"mvm", kernels.MVMIRL},
		{"minred", kernels.MinredIRL}, {"cg", string(cg)}, {"mix", compileSrc},
	} {
		env := bindAll(t, body.src, n, 11)
		for li, loop := range env.Prog.Loops {
			exprs := rhsOf(loop)
			for _, opts := range []CompileOpts{{}, proveAll} {
				code, err := env.CompileIterOpts(loop, exprs, opts)
				if err != nil {
					t.Fatalf("%s loop %d: %v", body.name, li, err)
				}
				for _, iters := range [][]int32{all, phased} {
					for _, split := range []int{1, 7, 256, len(iters)} {
						for lo := 0; lo < len(iters); lo += split {
							blk := iters[lo:min(lo+split, len(iters))]
							got := make([]float64, len(exprs)*len(blk))
							code.EvalBlock(blk, got)
							want := make([]float64, len(exprs))
							for j, it := range blk {
								if err := env.IterEval(loop, int(it), exprs, want); err != nil {
									t.Fatal(err)
								}
								for r, w := range want {
									if g := got[r*len(blk)+j]; math.Float64bits(g) != math.Float64bits(w) {
										t.Fatalf("%s loop %d split %d iteration %d result %d: block %v, tree walker %v",
											body.name, li, split, it, r, g, w)
									}
								}
							}
						}
					}
				}
				if err := code.Err(); err != nil {
					t.Fatalf("%s loop %d: in-range data faulted: %v", body.name, li, err)
				}
			}
		}
	}
}

// TestEvalBlockFirstFault: with out-of-range subscripts planted in one
// block of checked euler code, block evaluation clamps the same values and
// reports the same first fault as evaluating the iterations one at a time
// — the lowest iteration, and in it the earliest site.
func TestEvalBlockFirstFault(t *testing.T) {
	const n, lo = 600, 256
	for _, tc := range []struct {
		name  string
		plant [][3]int // block position, ia column, planted value
		want  string   // the value the reported fault names
	}{
		{"first", [][3]int{{0, 0, 7001}}, "7001"},
		{"middle", [][3]int{{128, 1, 7002}}, "7002"},
		{"last", [][3]int{{255, 0, 7003}}, "7003"},
		{"lowest-iteration", [][3]int{{100, 0, 7004}, {50, 1, 7005}}, "7005"},
		{"earliest-site", [][3]int{{70, 1, 7006}, {70, 0, 7007}}, "7007"},
	} {
		env := bindAll(t, kernels.EulerIRL, n, 5)
		for _, p := range tc.plant {
			env.Ints["ia"][2*(lo+p[0])+p[1]] = int32(p[2])
		}
		loop := env.Prog.Loops[0]
		exprs := rhsOf(loop)
		code, err := env.CompileIter(loop, exprs)
		if err != nil {
			t.Fatal(err)
		}
		iters := make([]int32, BlockLen)
		for j := range iters {
			iters[j] = int32(lo + j)
		}
		block, seq := code.Clone(), code.Clone()
		got := make([]float64, len(exprs)*len(iters))
		block.EvalBlock(iters, got)
		want := make([]float64, len(exprs))
		for j, it := range iters {
			seq.Eval(int(it), want)
			for r, w := range want {
				if g := got[r*len(iters)+j]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: iteration %d result %d: block %v, one at a time %v", tc.name, it, r, g, w)
				}
			}
		}
		if block.Err() == nil || seq.Err() == nil {
			t.Fatalf("%s: planted fault not recorded (block %v, one at a time %v)", tc.name, block.Err(), seq.Err())
		}
		if block.Err().Error() != seq.Err().Error() {
			t.Fatalf("%s: block reports %q, one at a time %q", tc.name, block.Err(), seq.Err())
		}
		if !strings.Contains(block.Err().Error(), tc.want) {
			t.Fatalf("%s: fault %q does not name %s", tc.name, block.Err(), tc.want)
		}
	}
}

// TestEvalExactBeyondInt32: Eval takes any int iteration, so one past the
// int32 range reads as itself — through the loop variable and through a
// fused index chain alike — bitwise as the tree walker reads it.
func TestEvalExactBeyondInt32(t *testing.T) {
	env := bindAll(t, `
param n
array w[n]
array x[n]
loop i = 0, n {
    h = i * 0.5
    x[i] = w[i * 0 + 3] + h - i
}
`, 8, 3)
	loop := env.Prog.Loops[0]
	exprs := rhsOf(loop)
	for _, opts := range []CompileOpts{{}, proveAll} {
		code, err := env.CompileIterOpts(loop, exprs, opts)
		if err != nil {
			t.Fatal(err)
		}
		fused := slices.ContainsFunc(code.prog, func(in cinstr) bool { return in.op == opDirect })
		if fused != (opts.Unchecked != nil) {
			t.Fatalf("w[i * 0 + 3] fused = %v with %d checks", fused, code.NumChecks())
		}
		got, want := make([]float64, len(exprs)), make([]float64, len(exprs))
		for _, i := range []int{1 << 31, 1<<32 + 5, -1<<40 - 3, 1<<53 - 1} {
			code.Eval(i, got)
			if err := env.IterEval(loop, i, exprs, want); err != nil {
				t.Fatal(err)
			}
			for r, w := range want {
				if math.Float64bits(got[r]) != math.Float64bits(w) {
					t.Fatalf("iteration %d result %d: Eval %v, tree walker %v", i, r, got[r], w)
				}
			}
		}
		if err := code.Err(); err != nil {
			t.Fatalf("in-range subscripts faulted: %v", err)
		}
	}
}

// BenchmarkEvalBlock evaluates the euler body (kernels.EulerIRL on the
// paper's 10k mesh, every access proven) over all edges: block-256 in the
// engine's blocks, one through Eval one iteration at a time.
func BenchmarkEvalBlock(b *testing.B) {
	nodes, edges := mesh.Paper10K()
	m := mesh.Generate(nodes, edges, 1)
	env := bindAll(b, kernels.EulerIRL, nodes, 1)
	env.SetParam("num_edges", edges)
	ia := make([]int32, 2*edges)
	for i := range m.I1 {
		ia[2*i], ia[2*i+1] = m.I1[i], m.I2[i]
	}
	env.Ints["ia"], env.Floats["w"] = ia, make([]float64, edges)
	for i := range env.Floats["w"] {
		env.Floats["w"][i] = 1 + float64(i%7)/8
	}
	loop := env.Prog.Loops[0]
	var exprs []lang.Expr
	for _, st := range loop.Body {
		if st.Scalar == "" {
			exprs = append(exprs, st.RHS)
		}
	}
	code, err := env.CompileIterOpts(loop, exprs, proveAll)
	if err != nil {
		b.Fatal(err)
	}
	iters := make([]int32, edges)
	for i := range iters {
		iters[i] = int32(i)
	}
	out := make([]float64, len(exprs)*BlockLen)
	perIter := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*edges), "ns/iter")
	}
	b.Run("block-256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < edges; lo += BlockLen {
				code.EvalBlock(iters[lo:min(lo+BlockLen, edges)], out)
			}
		}
		perIter(b)
	})
	b.Run("one", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for it := 0; it < edges; it++ {
				code.Eval(it, out)
			}
		}
		perIter(b)
	})
}

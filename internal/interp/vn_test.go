package interp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"irred/internal/kernels"
	"irred/internal/lang"
)

// codegenResults lists loop l's reduction right-hand sides the way codegen
// hands them to the compiler: a -= update as the product -1 * RHS.
func codegenResults(l *lang.Loop) []lang.Expr {
	var exprs []lang.Expr
	for _, st := range l.Body {
		switch {
		case st.Scalar != "":
		case st.Op == lang.OpSub:
			exprs = append(exprs, &lang.BinExpr{Op: '*', L: &lang.Num{Val: -1}, R: st.RHS})
		default:
			exprs = append(exprs, st.RHS)
		}
	}
	return exprs
}

// TestProgramShape pins the column program of the codegen-shaped euler and
// moldyn bodies, every access proven: value numbering loads each endpoint
// state once, and last-use allocation keeps the arena small.
func TestProgramShape(t *testing.T) {
	for _, tc := range []struct {
		name         string
		src          string
		instrs, cols int
	}{
		{"euler", kernels.EulerIRL, 46, 13},
		{"moldyn", kernels.MoldynIRL, 34, 10},
	} {
		env := bindAll(t, tc.src, 64, 1)
		loop := env.Prog.Loops[0]
		code, err := env.CompileIterOpts(loop, codegenResults(loop), proveAll)
		if err != nil {
			t.Fatal(err)
		}
		cols := len(code.arena) / BlockLen
		if len(code.prog) > tc.instrs || cols > tc.cols {
			t.Errorf("%s: %d instructions and %d columns, want at most %d and %d",
				tc.name, len(code.prog), cols, tc.instrs, tc.cols)
		}
	}
}

// genBody writes a seeded loop body full of repeated subexpressions: loads
// shared through ia[i, c], scalars read by several statements and
// redefined, x*x, and one operator on swapped operands — the shapes that
// give a value several readers, so a column freed before its last reader
// shows as a wrong result.
func genBody(rng *rand.Rand) string {
	leaves := []string{"u[ia[i, 0]]", "u[ia[i, 1]]", "v[ia[i, 0]]", "v[ia[i, 1]]", "u[i]", "v[i]", "ia[i, 1]", "i", "0.5", "3"}
	var pool []string // subexpressions written so far, for reuse
	var gen func(depth int) string
	gen = func(depth int) string {
		if len(pool) > 0 && rng.Intn(4) == 0 {
			return pool[rng.Intn(len(pool))]
		}
		if depth == 0 || rng.Intn(5) == 0 {
			return leaves[rng.Intn(len(leaves))]
		}
		a, b := gen(depth-1), gen(depth-1)
		var e string
		switch rng.Intn(9) {
		case 0:
			e = fmt.Sprintf("(%s + %s)", a, b)
		case 1:
			e = fmt.Sprintf("(%s - %s)", a, b)
		case 2:
			e = fmt.Sprintf("(%s * %s)", a, b)
		case 3:
			e = fmt.Sprintf("(%s * %s)", a, a)
		case 4:
			e = fmt.Sprintf("(%s / (abs(%s) + 1))", a, b)
		case 5:
			e = fmt.Sprintf("min(%s, %s)", a, b)
		case 6:
			e = fmt.Sprintf("(%s - %s + (%s - %s))", a, b, b, a)
		case 7:
			e = fmt.Sprintf("sqrt(abs(%s))", a)
		default:
			e = fmt.Sprintf("-%s", a)
		}
		pool = append(pool, e)
		return e
	}
	var body strings.Builder
	nScalars := 1 + rng.Intn(4)
	for k := 0; k < nScalars; k++ {
		fmt.Fprintf(&body, "    t%d = %s\n", k, gen(3))
		leaves = append(leaves, fmt.Sprintf("t%d", k))
	}
	fmt.Fprintf(&body, "    t0 = t0 * 0.5 + %s\n", gen(2))
	for k, target := range []string{"r[ia[i, 0]] +=", "r[ia[i, 1]] -=", "s[ia[i, 0]] +=", "s[ia[i, 1]] -="}[:1+rng.Intn(4)] {
		fmt.Fprintf(&body, "    %s %s + t%d\n", target, gen(3), k%nScalars)
	}
	return `
param n
array ia[n, 2] int
array u[n]
array v[n]
array r[n]
array s[n]
loop i = 0, n {
` + body.String() + "}\n"
}

// TestValueNumberingMatchesOracle: on generated bodies, block evaluation at
// lengths 1, 7, 256 and 300 and one-at-a-time Eval are bitwise the tree
// walker, proven and unproven, for every statement's right-hand side and
// the codegen-shaped results.
func TestValueNumberingMatchesOracle(t *testing.T) {
	const n = 600
	iters := make([]int32, n)
	for i := range iters {
		iters[i] = int32(i)
	}
	for seed := int64(1); seed <= 40; seed++ {
		src := genBody(rand.New(rand.NewSource(seed)))
		env := bindAll(t, src, n, seed)
		loop := env.Prog.Loops[0]
		exprs := append(rhsOf(loop), codegenResults(loop)...)
		want := make([]float64, len(exprs)*n)
		for _, it := range iters {
			if err := env.IterEval(loop, int(it), exprs, want[int(it)*len(exprs):][:len(exprs)]); err != nil {
				t.Fatal(err)
			}
		}
		check := func(what string, it int32, r int, g float64) {
			if w := want[int(it)*len(exprs)+r]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d %s: iteration %d result %d: %v, tree walker %v\n%s", seed, what, it, r, g, w, src)
			}
		}
		for _, opts := range []CompileOpts{{}, proveAll} {
			code, err := env.CompileIterOpts(loop, exprs, opts)
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, src)
			}
			for _, split := range []int{1, 7, 256, 300} {
				for lo := 0; lo < n; lo += split {
					blk := iters[lo:min(lo+split, n)]
					got := make([]float64, len(exprs)*len(blk))
					code.EvalBlock(blk, got)
					for j, it := range blk {
						for r := range exprs {
							check(fmt.Sprintf("block %d", split), it, r, got[r*len(blk)+j])
						}
					}
				}
			}
			got := make([]float64, len(exprs))
			for _, it := range iters {
				code.Eval(int(it), got)
				for r, g := range got {
					check("Eval", it, r, g)
				}
			}
			if err := code.Err(); err != nil {
				t.Fatalf("seed %d: in-range data faulted: %v", seed, err)
			}
		}
	}
}

// TestCheckedSitesNotMerged: two identical unproven reads of x[col[i]]
// keep one checked instruction per site, and when both fault in one block,
// Err names the first site, as evaluating one iteration at a time does.
// Proven, the two reads are one indirect pass.
func TestCheckedSitesNotMerged(t *testing.T) {
	const n, lo = 600, 256
	prog := lang.MustParse(`
param n, m
array col[n] int
array x[m]
array y[n]
loop i = 0, n {
    t = x[col[i]] * 2
    y[i] += x[col[i]] + t
}
`)
	col := make([]int32, n)
	for i := range col {
		col[i] = int32(i % 4)
	}
	col[lo+70], col[lo+200] = 9, 11
	env := NewEnv(prog)
	env.SetParam("n", n)
	env.SetParam("m", 4)
	if err := env.BindInt("col", col); err != nil {
		t.Fatal(err)
	}
	if err := env.BindFloat("x", []float64{10, 20, 30, 40}); err != nil {
		t.Fatal(err)
	}
	if err := env.Alloc(); err != nil {
		t.Fatal(err)
	}
	loop := prog.Loops[0]
	exprs := rhsOf(loop)

	proven, err := env.CompileIterOpts(loop, exprs, proveAll)
	if err != nil {
		t.Fatal(err)
	}
	indirect := 0
	for _, in := range proven.prog {
		if in.op == opIndirect {
			indirect++
		}
	}
	if indirect != 1 {
		t.Fatalf("proven: %d indirect passes for two reads of x[col[i]], want 1", indirect)
	}

	code, err := env.CompileIter(loop, exprs)
	if err != nil {
		t.Fatal(err)
	}
	sites := map[int32]int{}
	for _, in := range code.prog {
		if in.op == opRange || in.op == opLoad1C || in.op == opLoadIC {
			sites[in.arr]++
		}
	}
	for k := range code.NumChecks() {
		if sites[int32(k)] != 1 {
			t.Fatalf("check site %d (%s) has %d instructions, want 1", k, code.checks[k].msg, sites[int32(k)])
		}
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
				t.Fatalf("iteration %d result %d: block %v, one at a time %v", it, r, g, w)
			}
		}
	}
	first := loop.Body[0].RHS.(*lang.BinExpr).L.Position().String()
	if block.Err() == nil || seq.Err() == nil || block.Err().Error() != seq.Err().Error() {
		t.Fatalf("block reports %v, one at a time %v", block.Err(), seq.Err())
	}
	if msg := block.Err().Error(); !strings.Contains(msg, first+": x[col[i]]") || !strings.Contains(msg, " 9 ") {
		t.Fatalf("fault %q does not name the first site (%s) at iteration %d", msg, first, lo+70)
	}
}

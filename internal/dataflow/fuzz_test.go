package dataflow_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"irred/internal/algebra"
	"irred/internal/dataflow"
	"irred/internal/interp"
	"irred/internal/lang"
)

// FuzzDataflow throws arbitrary IRL source at the dataflow engine and
// checks its two load-bearing properties:
//
//  1. termination: the analysis returns on every parseable program (the
//     interval domain has no infinite ascending chains the single-pass
//     analysis could climb, and the dead/invariant passes are bounded);
//  2. soundness of proofs: compiling with range checks elided exactly for
//     the proven references never faults — a proven access that indexes
//     out of bounds would panic the evaluator, which the harness reports;
//  3. soundness of algebra: every property the legality pass claims
//     Proven about a reduction's combine is re-verified by brute force
//     over the checker's own evaluation domain — a claimed law with a
//     concrete counterexample means the prover lied, and a tampered
//     schedule license must always fail Verify.
//
// Programs are bound with fixed small parameters and adversarial
// indirection contents (including negative and too-large values), so the
// proof must hold because the ScanInt32 seeding observed the data, not
// because the data happens to be benign.
func FuzzDataflow(f *testing.F) {
	f.Add("param n, m\narray ia[n] int\narray x[m]\narray y[n]\nloop i = 0, n {\n    x[ia[i]] += y[i]\n}\n")
	f.Add("param n\narray ia[n] int\narray x[n]\narray y[n]\nloop i = 0, n {\n    t = y[i] * 0\n    x[ia[i]] += t\n}\n")
	f.Add("param n\narray ia[n] int\narray x[n]\narray y[n]\nloop i = 0, n {\n    x[ia[i]] += y[i + n]\n}\n")
	f.Add("param n, m\narray ia[n, 2] int\narray x[m]\narray y[n]\nloop i = 0, n {\n    x[ia[i, 0]] += y[i] * 0.5\n    x[ia[i, 1]] -= y[i]\n}\n")
	f.Add("param n\narray w[8]\narray x[8]\narray ia[n] int\nloop i = 0, 4 {\n    w[i] = i * 2.0\n}\nloop i = 0, n {\n    x[ia[i]] += w[0] * 3 + 1\n}\n")
	f.Add("loop i = 0, 3 {\n    x[i] = 1\n}\n")
	f.Add("param n\narray x[n]\nloop i = n, 0 {\n    x[i] = sqrt(abs(x[i]))\n}\n")
	f.Add("array x[8]\narray w[8]\nloop i = 4294967296, 4294967300 {\n    x[i - 4294967296] = w[i * 0 + 3] + i\n}\n")
	f.Add("param n, m\narray e[n] int\narray best[m]\narray w[n]\nloop i = 0, n {\n    best[e[i]] min= w[i]\n}\n")
	f.Add("param n, m\narray ia[n] int\narray x[m]\narray w[n]\nloop i = 0, n {\n    x[ia[i]] *= w[i]\n    x[ia[i]] max= 0 - w[i]\n}\n")
	f.Add("param n, m\narray ia[n] int\narray x[m]\narray w[n]\nloop i = 0, n {\n    x[ia[i]] = x[ia[i]] * w[i] + x[ia[i]] + w[i]\n}\n")
	f.Add("param n, m\narray ia[n] int\narray x[m]\narray w[n]\nloop i = 0, n {\n    x[ia[i]] = x[ia[i]] * 0.5 + w[i]\n}\n")

	f.Fuzz(func(t *testing.T, src string) {
		prog, err := lang.Parse(src)
		if err != nil {
			return // not a program; nothing to analyze
		}

		env := interp.NewEnv(prog)
		for _, p := range prog.Params {
			env.SetParam(p, 6)
		}
		// Adversarial indirection contents: the pattern covers negative,
		// in-range and too-large values, so no access through an
		// indirection can be proven unless the scan really bounds it.
		for _, a := range prog.Arrays {
			if !a.Int {
				continue
			}
			size := 1
			for _, d := range a.Dims {
				if d.Param != "" {
					size *= 6
				} else {
					size *= d.Lit
				}
			}
			if size < 0 || size > 1<<12 {
				return
			}
			data := make([]int32, size)
			for i := range data {
				data[i] = int32(i%9 - 2)
			}
			if err := env.BindInt(a.Name, data); err != nil {
				return
			}
		}
		if err := env.Alloc(); err != nil {
			return
		}

		opts, _ := dataflow.EnvOptions(env.Params, env.Ints)

		// Property 1: the whole-program analysis terminates and keeps its
		// internal shapes consistent.
		res := dataflow.AnalyzeProgram(prog, opts)
		if len(res.Loops) != len(prog.Loops) {
			t.Fatalf("analysis lost loops: %d facts for %d loops", len(res.Loops), len(prog.Loops))
		}
		for li, lf := range res.Loops {
			zero := map[int]bool{}
			for _, idx := range lf.ZeroRed {
				zero[idx] = true
			}
			for i := 1; i < len(lf.Dead); i++ {
				if lf.Dead[i-1] >= lf.Dead[i] {
					t.Fatalf("loop %d: Dead not strictly sorted: %v", li, lf.Dead)
				}
			}
			for _, idx := range lf.ZeroRed {
				if !lf.IsDead(idx) {
					t.Fatalf("loop %d: zero reduction %d not in Dead", li, idx)
				}
			}
			_ = zero
		}

		// Property 2: run each loop's right-hand sides with checks elided
		// exactly where proven. An unsound proof panics the evaluator on
		// a raw out-of-range slice index. Where the iterations fit the
		// int32 EvalBlock takes, the same iterations evaluated in random
		// block splits must give the same bits and the same first fault as
		// one at a time.
		rng := rand.New(rand.NewSource(int64(len(src))))
		for li, l := range prog.Loops {
			lf := res.Loops[li]
			lo, hi, ok := constBounds(env, l)
			if !ok || hi-lo <= 0 || hi-lo > 64 {
				continue
			}
			exprs := make([]lang.Expr, len(l.Body))
			for si, st := range l.Body {
				exprs[si] = st.RHS
			}
			proof := lf.Proof(nil)
			code, err := env.CompileIterOpts(l, exprs, interp.CompileOpts{Unchecked: proof.RefProven})
			if err != nil {
				continue
			}
			nr, block := len(exprs), code.Clone()
			want := make([]float64, nr*(hi-lo)) // iteration-major
			iters := make([]int32, hi-lo)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("loop %d: proven access faulted at runtime (unsound proof): %v\nsource:\n%s", li, r, src)
					}
				}()
				for i := lo; i < hi; i++ {
					code.Eval(i, want[(i-lo)*nr:])
				}
				if lo < math.MinInt32 || hi-1 > math.MaxInt32 {
					return // one at a time only: Eval is exact for any int
				}
				for i := range iters {
					iters[i] = int32(lo + i)
				}
				for pos := 0; pos < len(iters); {
					blk := iters[pos:min(pos+1+rng.Intn(12), len(iters))]
					got := make([]float64, nr*len(blk))
					block.EvalBlock(blk, got)
					for j := range blk {
						for r := 0; r < nr; r++ {
							if g, w := got[r*len(blk)+j], want[(pos+j)*nr+r]; math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("loop %d iteration %d result %d: block %v, one at a time %v\nsource:\n%s", li, blk[j], r, g, w, src)
							}
						}
					}
					pos += len(blk)
				}
				if fmt.Sprint(block.Err()) != fmt.Sprint(code.Err()) {
					t.Fatalf("loop %d: block evaluation faults %v, one at a time %v\nsource:\n%s", li, block.Err(), code.Err(), src)
				}
			}()
		}

		// Property 3: algebra soundness. Every license's ledger must
		// verify, and every algebraic law the prover claims Proven must
		// survive brute-force re-checking over the prover's own domain.
		// All evaluations are deterministic float arithmetic, identical to
		// the prover's, so this oracle can disagree only when the proof
		// logic itself is wrong — never from rounding flakiness.
		for li, lic := range dataflow.LegalizeProgram(prog, opts) {
			if err := lic.Verify(); err != nil {
				t.Fatalf("loop %d: license ledger failed self-check: %v\nsource:\n%s", li, err, src)
			}
			for _, ol := range lic.Ops {
				checkAlgebraClaims(t, src, ol)
			}
			// Tamper check: escalate every grant on a copy. If the real
			// license records refusals, conflicts, or unproven algebra,
			// the forged grants must be rejected by the ledger self-check.
			tampered := *lic
			tampered.Rotation, tampered.Tile = true, true
			mustFail := lic.Conflicting || len(lic.Refusals) > 0
			for _, ol := range lic.Ops {
				if ol.Props.Assoc != algebra.Proven || ol.Props.Comm != algebra.Proven || ol.Props.HasIdentity != algebra.Proven {
					mustFail = true
				}
			}
			if mustFail {
				if err := tampered.Verify(); err == nil {
					t.Fatalf("loop %d: tampered license (all grants forged) passed Verify\nsource:\n%s", li, src)
				}
			}
		}
	})
}

// oracleDomain mirrors the algebra checker's evaluation grid.
var oracleDomain = []float64{-3, -2, -1, 0, 1, 2, 3}

// checkAlgebraClaims re-verifies by brute force every property claimed
// Proven for one reduction operator. Triples with NaN intermediates are
// domain holes the prover also skips (it downgrades unrefuted claims to
// Unknown when holes exist), so they are skipped here too.
func checkAlgebraClaims(t *testing.T, src string, ol dataflow.OpLicense) {
	t.Helper()
	op := ol.Op
	fold := op.Fold
	ok := func(vs ...float64) bool {
		for _, v := range vs {
			if math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if ol.Props.Assoc == algebra.Proven {
		for _, a := range oracleDomain {
			for _, b := range oracleDomain {
				for _, c := range oracleDomain {
					ab, bc := fold(a, b), fold(b, c)
					l, r := fold(ab, c), fold(a, bc)
					if !ok(ab, bc, l, r) {
						continue
					}
					if l != r {
						t.Fatalf("claimed-associative op %s refuted: a=%g b=%g c=%g gives %g vs %g\nsource:\n%s", op, a, b, c, l, r, src)
					}
				}
			}
		}
	}
	if ol.Props.Comm == algebra.Proven {
		for _, a := range oracleDomain {
			for _, b := range oracleDomain {
				l, r := fold(a, b), fold(b, a)
				if !ok(l, r) {
					continue
				}
				if l != r {
					t.Fatalf("claimed-commutative op %s refuted: a=%g b=%g gives %g vs %g\nsource:\n%s", op, a, b, l, r, src)
				}
			}
		}
	}
	if ol.Props.Idem == algebra.Proven {
		for _, a := range oracleDomain {
			v := fold(a, a)
			if !ok(v) {
				continue
			}
			if v != a {
				t.Fatalf("claimed-idempotent op %s refuted: f(%g,%g) = %g\nsource:\n%s", op, a, a, v, src)
			}
		}
	}
	if id, has := op.Identity(); has {
		for _, a := range oracleDomain {
			l, r := fold(id, a), fold(a, id)
			if !ok(l, r) {
				continue
			}
			if l != a || r != a {
				t.Fatalf("claimed identity %g of op %s refuted: f(id,%g)=%g f(%g,id)=%g\nsource:\n%s", id, op, a, l, a, r, src)
			}
		}
	}
}

// constBounds resolves the loop bounds against the bound parameters.
func constBounds(env *interp.Env, l *lang.Loop) (int, int, bool) {
	get := func(e lang.Expr) (int, bool) {
		switch x := e.(type) {
		case *lang.Num:
			return int(x.Val), float64(int(x.Val)) == x.Val
		case *lang.Ident:
			v, ok := env.Params[x.Name]
			return v, ok
		}
		return 0, false
	}
	lo, ok1 := get(l.Lo)
	hi, ok2 := get(l.Hi)
	return lo, hi, ok1 && ok2
}

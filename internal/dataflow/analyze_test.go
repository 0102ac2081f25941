package dataflow

import (
	"strings"
	"testing"

	"irred/internal/lang"
)

func parse(t *testing.T, src string) *lang.Program {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

const eulerish = `
param num_edges, num_nodes
array ia[num_edges, 2] int
array x[num_nodes]
array y[num_edges]
array c[num_nodes]

loop i = 0, num_edges {
    t = y[i] * c[ia[i, 0]]
    x[ia[i, 0]] += t
    x[ia[i, 1]] -= t
}
`

func TestSymbolicProof(t *testing.T) {
	prog := parse(t, eulerish)
	res := AnalyzeProgram(prog, Options{})
	lf := res.Loops[0]

	// Without indirection content knowledge, y[i], c's outer subscript via
	// ia is unknown, but ia[i, 0] itself (subscripts i and 0) is proven.
	if lf.AllProven() {
		t.Fatal("loop must not be fully proven without indirection contents")
	}
	byRef := map[string][]Status{}
	for _, a := range lf.Accesses {
		byRef[a.Ref.String()+written(a.Write)] = append(byRef[a.Ref.String()+written(a.Write)], a.Status)
	}
	for ref, stats := range byRef {
		switch {
		case strings.HasPrefix(ref, "y[i]"), strings.HasPrefix(ref, "ia[i,"):
			for _, s := range stats {
				if s != Proven {
					t.Errorf("%s: want proven, got %v", ref, stats)
				}
			}
		case strings.HasPrefix(ref, "x["), strings.HasPrefix(ref, "c["):
			if stats[0] != Unknown {
				t.Errorf("%s: want unknown without contents, got %v", ref, stats)
			}
		}
	}
}

func written(w bool) string {
	if w {
		return " (write)"
	}
	return ""
}

func TestContentSeededProof(t *testing.T) {
	prog := parse(t, eulerish)
	// Contents of ia proven in [0, num_nodes) by a runtime scan with
	// concrete extents.
	opts := Options{
		Params:   map[string]int{"num_edges": 100, "num_nodes": 10},
		Contents: map[string]Interval{"ia": ScanInt32([]int32{0, 3, 9, 5})},
	}
	lf := AnalyzeLoop(prog, prog.Loops[0], opts)
	if !lf.AllProven() {
		t.Fatalf("expected full proof:\n%s", lf.Describe())
	}
	for _, a := range lf.Accesses {
		if !lf.RefProven(a.Ref) {
			t.Errorf("RefProven(%s) = false", a.Ref)
		}
	}

	// A content range that escapes the extent defeats the proof.
	opts.Contents["ia"] = ScanInt32([]int32{0, 10})
	lf = AnalyzeLoop(prog, prog.Loops[0], opts)
	if lf.AllProven() {
		t.Fatal("content value 10 >= num_nodes=10 must defeat the proof")
	}
}

func TestProvableOOB(t *testing.T) {
	src := `
param n
array x[n]
array y[n]

loop i = 0, n {
    x[i] += y[i + n]
}
`
	prog := parse(t, src)
	lf := AnalyzeLoop(prog, prog.Loops[0], Options{})
	var oob []Access
	for _, a := range lf.Accesses {
		if a.Status == OOB {
			oob = append(oob, a)
		}
	}
	if len(oob) != 1 || oob[0].Ref.Array != "y" {
		t.Fatalf("want exactly the y[i+n] access OOB, got %+v\n%s", oob, lf.Describe())
	}
}

func TestNegativeOOB(t *testing.T) {
	src := `
param n
array x[n]
array y[n]

loop i = 0, n {
    x[i] += y[i - n - 1]
}
`
	prog := parse(t, src)
	lf := AnalyzeLoop(prog, prog.Loops[0], Options{})
	// i - n - 1 is in [-n-1, -2]: entirely negative, provably OOB.
	found := false
	for _, a := range lf.Accesses {
		if a.Ref.Array == "y" && a.Status == OOB {
			found = true
		}
	}
	if !found {
		t.Fatalf("y[i-n-1] should be provably out of bounds\n%s", lf.Describe())
	}
}

func TestDeadStatements(t *testing.T) {
	src := `
param n
array x[n]
array y[n]
array col[n] int

loop i = 0, n {
    unused = y[i] + 1
    t = y[i] * 0
    u = t + 1
    x[col[i]] += t
    x[i] += y[i]
}
`
	prog := parse(t, src)
	lf := AnalyzeLoop(prog, prog.Loops[0], Options{})
	// Statement 1 (t = y[i]*0) feeds only the zero reduction at 3, which is
	// dead; u at 2 is never read; unused at 0 is never read. Statement 4 is
	// live.
	wantDead := []int{0, 1, 2, 3}
	if len(lf.Dead) != len(wantDead) {
		t.Fatalf("dead = %v, want %v\n%s", lf.Dead, wantDead, lf.Describe())
	}
	for i, d := range wantDead {
		if lf.Dead[i] != d {
			t.Fatalf("dead = %v, want %v", lf.Dead, wantDead)
		}
	}
	if len(lf.ZeroRed) != 1 || lf.ZeroRed[0] != 3 {
		t.Fatalf("zero reductions = %v, want [3]", lf.ZeroRed)
	}
	if lf.IsDead(4) {
		t.Fatal("x[i] += y[i] is live")
	}
}

func TestReachingDefs(t *testing.T) {
	src := `
param n
array x[n]
array y[n]

loop i = 0, n {
    t = y[i]
    t = t + 1
    x[i] += t
}
`
	prog := parse(t, src)
	lf := AnalyzeLoop(prog, prog.Loops[0], Options{})
	if got := lf.Reaching[1]["t"]; got != 0 {
		t.Errorf("t at stmt 1 reached by def %d, want 0", got)
	}
	if got := lf.Reaching[2]["t"]; got != 1 {
		t.Errorf("t at stmt 2 reached by def %d, want 1", got)
	}
	// A read before any definition reaches nothing.
	src2 := `
param n
array x[n]

loop i = 0, n {
    x[i] += t
    t = 1
}
`
	prog2 := parse(t, src2)
	lf2 := AnalyzeLoop(prog2, prog2.Loops[0], Options{})
	if got := lf2.Reaching[0]["t"]; got != -1 {
		t.Errorf("use-before-def should reach -1, got %d", got)
	}
}

func TestInvariants(t *testing.T) {
	src := `
param n, m
array x[n]
array y[n]
array w[m]

loop i = 0, n {
    s = w[0] * 2 + m
    x[i] += y[i] * s
}
`
	prog := parse(t, src)
	lf := AnalyzeLoop(prog, prog.Loops[0], Options{})
	if len(lf.Invariant) != 1 {
		t.Fatalf("invariants = %v, want exactly the RHS of s", lf.Invariant)
	}
	inv := lf.Invariant[0]
	if inv.Stmt != 0 {
		t.Errorf("invariant at stmt %d, want 0", inv.Stmt)
	}
	if got := inv.Expr.String(); !strings.Contains(got, "w[0]") {
		t.Errorf("invariant expr = %s", got)
	}
	// y[i] * s varies with i: not invariant; s alone is a bare ident (not
	// reported); and the loop writing w would kill w[0]'s invariance.
}

func TestInvariantKilledByWrite(t *testing.T) {
	src := `
param n
array x[n]
array y[n]

loop i = 0, n {
    s = x[0] + 1
    x[i] = y[i] + s
}
`
	prog := parse(t, src)
	lf := AnalyzeLoop(prog, prog.Loops[0], Options{})
	if len(lf.Invariant) != 0 {
		t.Fatalf("x is written by the loop; x[0]+1 is not invariant: %v", lf.Invariant)
	}
}

func TestStaleRead(t *testing.T) {
	src := `
param n
array a[n]
array b[n]
array half[1] int

loop i = 0, 8 {
    a[i] = b[i]
}
loop j = 16, 32 {
    b[j] += a[j]
}
`
	prog := parse(t, src)
	res := AnalyzeProgram(prog, Options{})
	if len(res.Stale) != 1 {
		t.Fatalf("stale reads = %+v, want exactly a[j] in loop 1", res.Stale)
	}
	s := res.Stale[0]
	if s.Array != "a" || s.Loop != 1 {
		t.Fatalf("stale read = %+v", s)
	}
	// b is read in loop 0 before any write: input data, not stale.
}

func TestStaleReadSilentForInputs(t *testing.T) {
	prog := parse(t, eulerish)
	res := AnalyzeProgram(prog, Options{})
	if len(res.Stale) != 0 {
		t.Fatalf("no stale reads expected for pure-input program: %+v", res.Stale)
	}
}

func TestScalarChainProof(t *testing.T) {
	// A subscript routed through a scalar still proves.
	src := `
param n
array x[n]
array y[n]

loop i = 0, n {
    x[i] += y[i] * 2 - y[i]
}
`
	prog := parse(t, src)
	lf := AnalyzeLoop(prog, prog.Loops[0], Options{})
	if !lf.AllProven() {
		t.Fatalf("all direct [i] accesses should be proven:\n%s", lf.Describe())
	}
	f := lf.Proof(nil)
	if !f.AllProven {
		t.Fatal("Facts.AllProven should mirror the loop facts")
	}
	rep := f.Report()
	if !strings.Contains(rep, "complete") {
		t.Errorf("report should announce a complete proof:\n%s", rep)
	}
}

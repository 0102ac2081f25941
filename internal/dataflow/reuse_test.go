package dataflow

import (
	"fmt"
	"strings"
	"testing"

	"irred/internal/inspector"
	"irred/internal/lang"
)

const cgSrc = `param ne, n
array row[ne] int
array y[ne]
array q[n]
array z[n]
loop i = 0, ne {
    q[row[i]] += y[i]
}
loop i = 0, ne {
    z[row[i]] += y[i]
}
loop i = 0, ne {
    q[row[i]] += z[row[i]] * y[i]
}`

const rewireSrc = `param ne, n, nb
array row[ne] int
array y[ne]
array q[n]
loop i = 0, ne {
    q[row[i]] += y[i]
}
loop j = 0, nb {
    row[j] = 0
}
loop i = 0, ne {
    q[row[i]] += y[i]
}`

func mustParse(t *testing.T, src string) *lang.Program {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func TestProveReuseGrantsChain(t *testing.T) {
	rl := ProveReuse(mustParse(t, cgSrc), Options{})
	if len(rl.Grants) != 2 {
		t.Fatalf("grants = %d, want 2\n%s", len(rl.Grants), rl.Report())
	}
	if got := rl.ReuseOf(1); got != 0 {
		t.Errorf("ReuseOf(1) = %d, want 0", got)
	}
	if got := rl.ReuseOf(2); got != 0 {
		t.Errorf("ReuseOf(2) = %d, want 0", got)
	}
	if got := rl.ReuseOf(0); got != -1 {
		t.Errorf("ReuseOf(0) = %d, want -1 (the representative inspects)", got)
	}
	if err := rl.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	for _, g := range rl.Grants {
		rules := map[string]bool{}
		for _, j := range g.Ledger {
			if !j.OK {
				t.Errorf("grant %d→%d: ledger rule %q failed: %s", g.From, g.To, j.Rule, j.Detail)
			}
			rules[j.Rule] = true
		}
		for _, want := range []string{"same-indirection", "same-extent", "no-intervening-write", "no-resize"} {
			if !rules[want] {
				t.Errorf("grant %d→%d: ledger missing rule %q", g.From, g.To, want)
			}
		}
	}
	rep := rl.Report()
	for _, want := range []string{"grant loop 0 → loop 1", "grant loop 0 → loop 2", "row(*)"} {
		if !strings.Contains(rep, want) {
			t.Errorf("Report missing %q:\n%s", want, rep)
		}
	}
}

// TestReuseSigCoalescesSections: a signature's references are codegen's
// (SectionRefs), so two loops whose updates traverse the same sections in
// the same order but reduce into different arrays can differ — y joins x's
// ia(*,0) reference, a third update of x cannot — and are not granted reuse.
func TestReuseSigCoalescesSections(t *testing.T) {
	rl := ProveReuse(mustParse(t, `param ne, n
array ia[ne, 2] int
array w[ne]
array x[n]
array y[n]
loop i = 0, ne {
    x[ia[i, 0]] += w[i]
    x[ia[i, 1]] += w[i]
    y[ia[i, 0]] += w[i]
}
loop i = 0, ne {
    x[ia[i, 0]] += w[i]
    x[ia[i, 1]] += w[i]
    x[ia[i, 0]] += w[i]
}`), Options{})
	for i, want := range []string{"ia(*,0);ia(*,1);", "ia(*,0);ia(*,1);ia(*,0);"} {
		if got := rl.Sigs[i].refsKey(); got != want {
			t.Errorf("loop %d references %q, want %q", i, got, want)
		}
	}
	if len(rl.Grants) != 0 {
		t.Fatalf("loops with different references granted reuse\n%s", rl.Report())
	}

	refs, refOf := SectionRefs([]string{"a", "b", "a", "b", "a"}, []string{"x", "x", "y", "y", "y"})
	if fmt.Sprint(refs, refOf) != "[a b a] [0 1 0 1 2]" {
		t.Fatalf("SectionRefs = %v %v, want [a b a] [0 1 0 1 2]", refs, refOf)
	}
}

func TestProveReuseRefusesAfterWrite(t *testing.T) {
	prog := mustParse(t, rewireSrc)
	rl := ProveReuse(prog, Options{})
	if len(rl.Grants) != 0 {
		t.Fatalf("grants = %d, want 0\n%s", len(rl.Grants), rl.Report())
	}
	var stale []ReuseRefusal
	for _, r := range rl.Refusals {
		if r.Stale {
			stale = append(stale, r)
		}
	}
	if len(stale) != 1 {
		t.Fatalf("stale refusals = %d, want 1\n%s", len(stale), rl.Report())
	}
	r := stale[0]
	if r.From != 0 || r.To != 2 || r.Array != "row" {
		t.Errorf("stale refusal = %d→%d on %q, want 0→2 on row", r.From, r.To, r.Array)
	}
	// The refusal points at the invalidating write, not at either loop.
	wantPos := prog.Loops[1].Body[0].Pos
	if r.Pos != wantPos {
		t.Errorf("stale refusal at %s, want the write at %s", r.Pos, wantPos)
	}
	if err := rl.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestProveReuseSelfInvalidation(t *testing.T) {
	// A loop that rewires its own indirection: the write lands after its
	// inspection, so the next identical loop must re-inspect.
	src := `param ne, n
array row[ne] int
array q[n]
loop i = 0, ne {
    q[row[i]] += 1
    row[i] = 0
}
loop i = 0, ne {
    q[row[i]] += 1
}`
	rl := ProveReuse(mustParse(t, src), Options{})
	if len(rl.Grants) != 0 {
		t.Fatalf("grants = %d, want 0 (representative invalidated itself)\n%s", len(rl.Grants), rl.Report())
	}
	found := false
	for _, r := range rl.Refusals {
		if r.Stale && r.From == 0 && r.To == 1 && r.Array == "row" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no stale 0→1 refusal on row:\n%s", rl.Report())
	}
}

func TestProveReuseExtentMismatch(t *testing.T) {
	src := `param ne, n, m
array row[ne] int
array q[n]
array r[m]
loop i = 0, ne {
    q[row[i]] += 1
}
loop i = 0, ne {
    r[row[i]] += 1
}`
	rl := ProveReuse(mustParse(t, src), Options{})
	if len(rl.Grants) != 0 {
		t.Fatalf("grants = %d, want 0 (NumElems facts differ)\n%s", len(rl.Grants), rl.Report())
	}
	found := false
	for _, r := range rl.Refusals {
		if !r.Stale && strings.Contains(r.Reason, "extent facts differ") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no extent-mismatch refusal:\n%s", rl.Report())
	}
	// Binding both extents to the same value makes the facts agree again.
	rl = ProveReuse(mustParse(t, src), Options{Params: map[string]int{"n": 40, "m": 40}})
	if len(rl.Grants) != 1 {
		t.Fatalf("grants = %d, want 1 once n and m are bound equal\n%s", len(rl.Grants), rl.Report())
	}
	if err := rl.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestReuseVerifyRejectsForgedGrant(t *testing.T) {
	prog := mustParse(t, rewireSrc)
	rl := ProveReuse(prog, Options{})

	// Forge the grant the prover refused: loop 2 reusing loop 0's
	// schedules across the rewire.
	forged := &ReuseGrant{From: 0, To: 2, Arrays: []string{"row"}}
	forged.note("no-intervening-write", true, "forged")
	rl.Grants = append(rl.Grants, forged)
	if err := rl.Verify(); err == nil {
		t.Fatal("Verify accepted a grant across an intervening indirection write")
	} else if !strings.Contains(err.Error(), "write") {
		t.Fatalf("Verify error %q does not name the write", err)
	}
}

func TestReuseVerifyRejectsTampering(t *testing.T) {
	valid := func(t *testing.T) *ReuseLicense {
		rl := ProveReuse(mustParse(t, cgSrc), Options{})
		if err := rl.Verify(); err != nil {
			t.Fatalf("pristine license fails Verify: %v", err)
		}
		if len(rl.Grants) == 0 {
			t.Fatal("no grants to tamper with")
		}
		return rl
	}

	t.Run("failed ledger rule", func(t *testing.T) {
		rl := valid(t)
		rl.Grants[0].Ledger[0].OK = false
		if err := rl.Verify(); err == nil || !strings.Contains(err.Error(), "failed ledger rule") {
			t.Fatalf("Verify = %v, want failed-ledger-rule error", err)
		}
	})
	t.Run("widened array set", func(t *testing.T) {
		rl := valid(t)
		rl.Grants[0].Arrays = []string{"row", "y"}
		if err := rl.Verify(); err == nil {
			t.Fatal("Verify accepted a grant covering arrays the signature does not")
		}
	})
	t.Run("reversed order", func(t *testing.T) {
		rl := valid(t)
		rl.Grants[0].From, rl.Grants[0].To = rl.Grants[0].To, rl.Grants[0].From
		if err := rl.Verify(); err == nil {
			t.Fatal("Verify accepted a backwards grant")
		}
	})
	t.Run("out of range", func(t *testing.T) {
		rl := valid(t)
		rl.Grants[0].To = 99
		if err := rl.Verify(); err == nil {
			t.Fatal("Verify accepted a grant naming a nonexistent loop")
		}
	})
	t.Run("reattached program", func(t *testing.T) {
		rl := valid(t)
		rl.Prog = mustParse(t, rewireSrc)
		if err := rl.Verify(); err == nil {
			t.Fatal("Verify accepted a license reattached to a different program")
		}
	})
	t.Run("no program", func(t *testing.T) {
		rl := valid(t)
		rl.Prog = nil
		if err := rl.Verify(); err == nil {
			t.Fatal("Verify accepted a license with no program")
		}
	})
}

func TestProveAllReuse(t *testing.T) {
	checked, violations := ProveAllReuse(8, 4)
	if checked == 0 {
		t.Fatal("no strategies checked")
	}
	for _, v := range violations {
		t.Errorf("%v", v)
	}
}

func TestCheckReuseStrategyCatchesLyingScenario(t *testing.T) {
	// A scenario whose ground-truth contents ignore the program's rewire:
	// the prover refuses (stale) but brute force finds identical
	// schedules, so the checker must flag the disagreement rather than
	// pass vacuously.
	sc := reuseScenario{
		name:      "lying",
		src:       rewireSrc,
		wantStale: 1,
		indAt: func(loop, ne, n int) [][]int32 {
			return [][]int32{baseRow(ne, n)} // never applies the write
		},
	}
	out := CheckReuseStrategy(2, 2, inspector.Block, sc)
	if len(out) == 0 {
		t.Fatal("checker accepted a scenario whose contents contradict the program")
	}
}

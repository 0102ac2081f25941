package codegen

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"irred/internal/dataflow"
	"irred/internal/inspector"
	"irred/internal/interp"
)

// The CG shape: consecutive sweeps over one indirection into different
// accumulators, the reuse license's bread and butter.
const cgTestSrc = `
param ne, n
array row[ne] int
array y[ne]
array q[n]
array z[n]
loop i = 0, ne {
    q[row[i]] += y[i]
}
loop i = 0, ne {
    z[row[i]] += y[i] * 2
}
`

// The euler2 shape: a boundary loop rewires part of the indirection
// between two otherwise identical sweeps, so reuse must be refused.
const rewireTestSrc = `
param ne, n, nb
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
}
`

// Three sweeps whose statements traverse ia(*,0), ia(*,1), ia(*,0),
// ia(*,1) alike but lower to different references: the first and last
// share two (y joins x's), the middle one's y through ia(*,0) follows its
// own ia(*,1) reference, so it opens a third.
const patternTestSrc = `
param ne, n
array ia[ne, 2] int
array w[ne]
array x[n]
array y[n]
loop i = 0, ne {
    x[ia[i, 0]] += w[i]
    x[ia[i, 1]] -= w[i]
    y[ia[i, 0]] += w[i] * 2
    y[ia[i, 1]] += w[i]
}
loop i = 0, ne {
    x[ia[i, 0]] += w[i]
    y[ia[i, 1]] += w[i] * 3
    y[ia[i, 0]] -= w[i]
    x[ia[i, 1]] += w[i]
}
loop i = 0, ne {
    x[ia[i, 0]] -= w[i] * 5
    x[ia[i, 1]] += w[i]
    y[ia[i, 0]] += w[i]
    y[ia[i, 1]] -= w[i]
}
`

// TestReuseFollowsReferenceLayout: schedule reuse is granted by the
// columns codegen extracts, not by the statements' sections — the middle
// loop must inspect for itself, the last reuse the first's schedules (its
// content key hits under VerifyReuse), and the run equals reuse-off.
func TestReuseFollowsReferenceLayout(t *testing.T) {
	u, err := Compile(patternTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{2, 3, 2} {
		if refs, _ := u.Plans[i].references(); len(refs) != want {
			t.Fatalf("plan %d: %d references (%v), want %d", i, len(refs), refs, want)
		}
	}
	if a, b := u.Reuse.ReuseOf(1), u.Reuse.ReuseOf(2); a != -1 || b != 0 {
		t.Fatalf("ReuseOf(1), ReuseOf(2) = %d, %d; want -1, 0\n%s", a, b, u.Reuse.Report())
	}
	const ne, n = 400, 53
	on, err := u.NewRunnerOpts(bindRandom(t, u, ne, n, 4), 3, 2, inspector.Cyclic, RunnerOpts{VerifyReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.Inspections() != 2 || on.Reuses() != 1 {
		t.Fatalf("inspections = %d, reuses = %d; want 2 and 1", on.Inspections(), on.Reuses())
	}
	off, err := u.NewRunnerOpts(bindRandom(t, u, ne, n, 4), 3, 2, inspector.Cyclic, RunnerOpts{NoReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := on.Run(2); err != nil {
		t.Fatal(err)
	}
	if err := off.Run(2); err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"x", "y"} {
		for i, v := range off.Env.Floats[a] {
			if g := on.Env.Floats[a][i]; math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("array %s[%d]: reuse-on %v, reuse-off %v", a, i, g, v)
			}
		}
	}
}

func cgEnv(t *testing.T, u *Unit, ne, n int, seed int64) *interp.Env {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	env := interp.NewEnv(u.Fissioned)
	env.SetParam("ne", ne)
	env.SetParam("n", n)
	env.SetParam("nb", ne/2)
	row := make([]int32, ne)
	y := make([]float64, ne)
	for i := range row {
		row[i] = int32(rng.Intn(n))
	}
	for i := range y {
		y[i] = float64(rng.Intn(100)) // integral: bitwise comparison below
	}
	if err := env.BindInt("row", row); err != nil {
		t.Fatal(err)
	}
	if err := env.BindFloat("y", y); err != nil {
		t.Fatal(err)
	}
	if err := env.Alloc(); err != nil {
		t.Fatal(err)
	}
	return env
}

func TestRunnerSharesSchedulesUnderReuseLicense(t *testing.T) {
	u, err := Compile(cgTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	if u.Reuse == nil {
		t.Fatal("compile produced no reuse license")
	}
	if got := u.Reuse.ReuseOf(1); got != 0 {
		t.Fatalf("ReuseOf(plan 1) = %d, want 0\n%s", got, u.Reuse.Report())
	}
	const ne, n = 400, 53

	r, err := u.NewRunner(cgEnv(t, u, ne, n, 8), 4, 2, inspector.Cyclic)
	if err != nil {
		t.Fatal(err)
	}
	if r.Inspections() != 1 || r.Reuses() != 1 {
		t.Fatalf("inspections = %d, reuses = %d; want 1 and 1", r.Inspections(), r.Reuses())
	}

	// VerifyReuse must be satisfied: the grant's content key hits.
	rv, err := u.NewRunnerOpts(cgEnv(t, u, ne, n, 8), 4, 2, inspector.Cyclic, RunnerOpts{VerifyReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if rv.Reuses() != 1 {
		t.Fatalf("VerifyReuse runner reuses = %d, want 1", rv.Reuses())
	}

	// Reuse on and off must agree bitwise (integral data).
	off, err := u.NewRunnerOpts(cgEnv(t, u, ne, n, 8), 4, 2, inspector.Cyclic, RunnerOpts{NoReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.Inspections() != 2 || off.Reuses() != 0 {
		t.Fatalf("NoReuse runner inspections = %d, reuses = %d; want 2 and 0", off.Inspections(), off.Reuses())
	}
	const steps = 3
	if err := r.Run(steps); err != nil {
		t.Fatal(err)
	}
	if err := off.Run(steps); err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"q", "z"} {
		on, ref := r.Env.Floats[a], off.Env.Floats[a]
		for i := range ref {
			if on[i] != ref[i] {
				t.Fatalf("array %s: reuse-on %v != reuse-off %v at %d", a, on[i], ref[i], i)
			}
		}
	}
}

func TestRunnerRefusesReuseAfterRewire(t *testing.T) {
	u, err := Compile(rewireTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Reuse.Grants) != 0 {
		t.Fatalf("rewire program got %d reuse grant(s)\n%s", len(u.Reuse.Grants), u.Reuse.Report())
	}
	r, err := u.NewRunner(cgEnv(t, u, 400, 53, 9), 4, 2, inspector.Block)
	if err != nil {
		t.Fatal(err)
	}
	if r.Inspections() != 2 || r.Reuses() != 0 {
		t.Fatalf("inspections = %d, reuses = %d; want 2 and 0", r.Inspections(), r.Reuses())
	}
}

func TestRunnerRejectsForgedReuseLicense(t *testing.T) {
	u, err := Compile(rewireTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Forge the grant the prover refused. Verify runs inside
	// NewRunnerOpts and must reject the whole runner.
	forged := &dataflow.ReuseGrant{From: 0, To: 2, Arrays: []string{"row"}}
	u.Reuse.Grants = append(u.Reuse.Grants, forged)
	_, err = u.NewRunner(cgEnv(t, u, 400, 53, 10), 4, 2, inspector.Block)
	if err == nil {
		t.Fatal("runner accepted a forged reuse grant")
	}
	if !strings.Contains(err.Error(), "refusing schedule reuse") {
		t.Fatalf("error %q does not refuse reuse", err)
	}
	// Reuse off ignores the license entirely and still runs.
	if _, err := u.NewRunnerOpts(cgEnv(t, u, 400, 53, 10), 4, 2, inspector.Block, RunnerOpts{NoReuse: true}); err != nil {
		t.Fatalf("NoReuse runner failed: %v", err)
	}
}

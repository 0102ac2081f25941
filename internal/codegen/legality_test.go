package codegen

import (
	"math/rand"
	"strings"
	"testing"

	"irred/internal/algebra"
	"irred/internal/inspector"
	"irred/internal/interp"
	"irred/internal/rts"
)

func TestPlansCarrySchedulLicenses(t *testing.T) {
	u, err := Compile(figure1)
	if err != nil {
		t.Fatal(err)
	}
	p := u.Plans[0]
	if p.License == nil {
		t.Fatal("compiled plan has no schedule license")
	}
	if err := p.License.Verify(); err != nil {
		t.Fatalf("license ledger self-check: %v", err)
	}
	if p.License.Level() != "TileLegal" {
		t.Fatalf("figure1 is a float += reduction; level = %s\n%s", p.License.Level(), p.License.Report())
	}
	if p.Combine.Kind != algebra.Add {
		t.Fatalf("combine = %s", p.Combine)
	}
}

func TestBuildLoopRefusesUnlicensedPlan(t *testing.T) {
	u, err := Compile(`
param n, m
array ia[n] int
array x[m]
array w[n]
loop i = 0, n {
    x[ia[i]] = x[ia[i]] * 0.5 + w[i]
}
`)
	if err != nil {
		t.Fatal(err)
	}
	p := u.Plans[0]
	if p.Kind != Irregular {
		t.Fatal("exponential-decay update should still be recognized as an irregular reduction")
	}
	if p.License.Rotation {
		t.Fatalf("a*0.5+b is not associative; rotation must be refused\n%s", p.License.Report())
	}
	env := interp.NewEnv(u.Fissioned)
	env.SetParam("n", 8)
	env.SetParam("m", 4)
	_, _, err = p.BuildLoop(env, 2, 1, 0)
	if err == nil {
		t.Fatal("BuildLoop must refuse an unlicensed plan")
	}
	if !strings.Contains(err.Error(), "Illegal") || !strings.Contains(err.Error(), "legality-report") {
		t.Fatalf("refusal should name the license level and the report flag: %v", err)
	}
}

// TestFissionCarriesLicense is the fission x legality contract: a
// fissioned group inherits the meet of its own license with its parent
// loop's, so splitting an illegal loop never launders a legal-looking
// fragment into a licensed schedule.
func TestFissionCarriesLicense(t *testing.T) {
	u, err := Compile(`
param n, m
array ia[n] int
array ja[n] int
array x[m]
array z[m]
array w[n]
loop i = 0, n {
    x[ia[i]] += w[i]
    z[ja[i]] = z[ja[i]] * 0.5 + w[i]
}
`)
	if err != nil {
		t.Fatal(err)
	}
	var irr []*Plan
	for _, p := range u.Plans {
		if p.Kind == Irregular {
			irr = append(irr, p)
		}
	}
	if len(irr) != 2 {
		t.Fatalf("want 2 irregular plans after fission, got %d", len(irr))
	}
	for _, p := range irr {
		if p.License.Rotation || p.License.Tile {
			t.Fatalf("%s: fission widened the parent's refused license:\n%s", p.Name, p.License.Report())
		}
	}
	// The add group is clean in isolation; the refusal must come from the
	// inherited parent verdict, recorded in the ledger.
	for _, p := range irr {
		if len(p.Info.Reductions) > 0 && p.Info.Reductions[0].Array == "x" {
			found := false
			for _, j := range p.License.Ledger {
				if j.Rule == "inherited" {
					found = true
				}
			}
			if !found {
				t.Fatalf("add group's ledger should record the inherited narrowing:\n%s", p.License.Report())
			}
		}
	}
}

// TestMinFoldEndToEnd drives a non-Add combine from IRL source through
// BuildLoop onto the rotation engine: a min-reduction over integral data
// must agree bitwise with the sequential interpreter.
func TestMinFoldEndToEnd(t *testing.T) {
	src := `
param n, m
array e[n] int
array best[m]
array w[n]
loop j = 0, m {
    best[j] = 1000000
}
loop i = 0, n {
    best[e[i]] min= w[i]
}
`
	u, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	var plan *Plan
	for _, p := range u.Plans {
		if p.Kind == Irregular {
			plan = p
		}
	}
	if plan == nil {
		t.Fatal("no irregular plan")
	}
	if plan.Combine.Kind != algebra.Min {
		t.Fatalf("combine = %s", plan.Combine)
	}
	if !plan.License.Rotation || !plan.License.Tile {
		t.Fatalf("min= must license rotation and tiling\n%s", plan.License.Report())
	}

	const n, m = 400, 37
	mkEnv := func() *interp.Env {
		rng := rand.New(rand.NewSource(13))
		env := interp.NewEnv(u.Fissioned)
		env.SetParam("n", n)
		env.SetParam("m", m)
		e := make([]int32, n)
		w := make([]float64, n)
		for i := range e {
			e[i] = int32(rng.Intn(m))
			w[i] = float64(rng.Intn(2000) - 1000)
		}
		if err := env.BindInt("e", e); err != nil {
			t.Fatal(err)
		}
		if err := env.BindFloat("w", w); err != nil {
			t.Fatal(err)
		}
		if err := env.Alloc(); err != nil {
			t.Fatal(err)
		}
		return env
	}

	ref := mkEnv()
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	want := ref.Floats["best"]

	env := mkEnv()
	for i := range env.Floats["best"] {
		env.Floats["best"][i] = 1000000 // the init loop, run by hand
	}
	loop, contribs, err := plan.BuildLoop(env, 4, 2, inspector.Cyclic)
	if err != nil {
		t.Fatal(err)
	}
	nat, err := rts.NewNative(loop)
	if err != nil {
		t.Fatal(err)
	}
	nat.Contribs = contribs
	if err := plan.Pack(env, nat.X); err != nil {
		t.Fatal(err)
	}
	if err := nat.Run(1); err != nil {
		t.Fatal(err)
	}
	if err := plan.Scatter(env, nat.X); err != nil {
		t.Fatal(err)
	}
	got := env.Floats["best"]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("best[%d] = %v, want %v (must be bitwise)", i, got[i], want[i])
		}
	}
}
